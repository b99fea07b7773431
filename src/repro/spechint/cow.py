"""Software-enforced copy-on-write (Section 3.2.1).

Inspired by software fault isolation, every load and store the speculating
thread executes is checked against a map of copied memory regions:

* a store to a region that has not been copied first copies the region,
  then writes the copy;
* a load reads the copy when one exists (the "current" value with respect
  to speculative execution), otherwise main memory.

The original thread's memory is therefore never modified by speculation.
Region size is configurable (the paper explored 128 B - 8192 B and uses
1024 B); the check costs are charged as extra cycles on the shadow code's
``COW_*`` instructions, and first-copy costs are returned from the store
path so the machine can charge them.

Accesses to unmapped addresses raise
:class:`~repro.vm.machine.SpeculationFault`, which the machine converts to
a simulated signal (speculation halts until the next restart).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.kernel.vmstat import PageAccounting
from repro.params import PAGE_SIZE, SpecHintParams
from repro.sim.metrics import SPEC_COW_REGIONS_COPIED
from repro.trace.tracer import CAT_SPEC, NULL_TRACER, TID_SPECULATING, Tracer
from repro.vm.machine import SpeculationFault
from repro.vm.memory import MASK64, AddressSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.stats import StatRegistry
    from repro.spechint.auditor import IsolationAuditor

#: Synthetic page-number base for COW copies in footprint accounting.
_COW_PAGE_BASE = 1 << 42

#: Cycles per byte to copy a region the first time it is written.
COW_COPY_CYCLES_PER_BYTE = 0.25


class CowMap:
    """The copy-on-write data structure of one speculation era."""

    def __init__(
        self,
        mem: AddressSpace,
        params: SpecHintParams,
        vmstat: Optional[PageAccounting] = None,
        auditor: Optional["IsolationAuditor"] = None,
        stats: Optional["StatRegistry"] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.mem = mem
        self.region_size = params.cow_region_size
        self._copy_cost_per_region = max(
            1, int(params.cow_region_size * COW_COPY_CYCLES_PER_BYTE)
        )
        self.vmstat = vmstat
        #: Isolation auditor: checks every write against the containment
        #: map (observation only; never alters behaviour of correct code).
        self.auditor = auditor
        self.stats = stats
        self.tracer = tracer
        self._copies: Dict[int, bytearray] = {}
        #: Regions seen to lie wholly inside a mapped segment: an access
        #: within one needs no range test of its own.  Mapped ranges only
        #: grow (no break ever moves down), so the fact cannot go stale.
        self._mapped_regions: Set[int] = set()
        #: Lifetime counters (across clears).
        self.regions_copied_total = 0
        self.bytes_copied_total = 0

    # -- lifecycle ----------------------------------------------------------

    def clear(self) -> None:
        """Discard all copies (done when speculation restarts)."""
        self._copies.clear()

    @property
    def copied_regions(self) -> int:
        return len(self._copies)

    @property
    def copied_bytes(self) -> int:
        return len(self._copies) * self.region_size

    def is_copied(self, addr: int) -> bool:
        return (addr // self.region_size) in self._copies

    # -- internals ------------------------------------------------------------

    def _check(self, addr: int, length: int) -> None:
        if not self.mem.mapped(addr, length):
            raise SpeculationFault(f"speculative access to [{addr:#x}+{length}]")

    def _ensure_copied(self, region: int) -> int:
        """Copy a region on first write; returns the cycle cost incurred."""
        if region in self._copies:
            return 0
        size = self.region_size
        base = region * size
        self._copies[region] = bytearray(self.mem.raw_read(base, size))
        self.regions_copied_total += 1
        self.bytes_copied_total += size
        if self.stats is not None:
            self.stats.bump(SPEC_COW_REGIONS_COPIED)
        if self.tracer.enabled:
            self.tracer.instant(
                CAT_SPEC, "cow.copy", tid=TID_SPECULATING, base=base, size=size,
            )
        if self.vmstat is not None:
            # COW copies occupy real memory: account them as distinct pages.
            first = _COW_PAGE_BASE + base // PAGE_SIZE
            last = _COW_PAGE_BASE + (base + size - 1) // PAGE_SIZE
            for page in range(first, last + 1):
                self.vmstat.touch_page(page)
        return self._copy_cost_per_region

    def _read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        size = self.region_size
        first = addr // size
        last = (addr + length - 1) // size
        if first == last:
            copy = self._copies.get(first)
            if copy is None:
                return self.mem.raw_read(addr, length)
            off = addr - first * size
            return bytes(copy[off:off + length])
        # Range spans regions: assemble piecewise.
        out = bytearray()
        cursor = addr
        remaining = length
        while remaining > 0:
            region = cursor // size
            off = cursor - region * size
            chunk = min(remaining, size - off)
            copy = self._copies.get(region)
            if copy is None:
                out += self.mem.raw_read(cursor, chunk)
            else:
                out += copy[off:off + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def _write(self, addr: int, payload: bytes) -> int:
        """Write through COW; returns extra cycles from first-copies."""
        self._check(addr, len(payload))
        size = self.region_size
        copies = self._copies
        source = memoryview(payload)
        extra = 0
        cursor = addr
        index = 0
        remaining = len(payload)
        while remaining > 0:
            region = cursor // size
            off = cursor - region * size
            chunk = min(remaining, size - off)
            if region not in copies:
                extra += self._ensure_copied(region)
            copies[region][off:off + chunk] = source[index:index + chunk]
            cursor += chunk
            index += chunk
            remaining -= chunk
        if self.auditor is not None:
            self.auditor.check_cow_containment(self, addr, len(payload))
        return extra

    # -- word/byte interface (machine COW_* handlers, translated blocks) ----------
    #
    # Each accessor is the whole software check of one shadow load/store in
    # one call: address validity, region lookup, first-write copy and the
    # auditor's containment check.  An access that straddles two regions
    # takes the bulk path, which does the same steps piecewise.  Translated
    # blocks do the case of an access inside a region already in
    # ``_mapped_regions`` (for a store: already copied) inline, over the same
    # ``_copies`` and ``_mapped_regions``, and call these for the rest.

    def _validate(self, region: int, addr: int, length: int) -> None:
        """The address-validity test of an access inside ``region`` that
        is not known to be wholly mapped yet."""
        size = self.region_size
        if self.mem.mapped(region * size, size):
            self._mapped_regions.add(region)
        else:
            self._check(addr, length)

    def load_word(self, addr: int) -> int:
        size = self.region_size
        region = addr // size
        off = addr - region * size
        if off + 8 > size:
            return int.from_bytes(self._read(addr, 8), "little")
        if region not in self._mapped_regions:
            self._validate(region, addr, 8)
        copy = self._copies.get(region)
        if copy is None:
            return int.from_bytes(self.mem.raw_read(addr, 8), "little")
        return int.from_bytes(copy[off:off + 8], "little")

    def store_word(self, addr: int, value: int) -> int:
        size = self.region_size
        region = addr // size
        off = addr - region * size
        if off + 8 > size:
            return self._write(addr, (value & MASK64).to_bytes(8, "little"))
        if region not in self._mapped_regions:
            self._validate(region, addr, 8)
        extra = 0 if region in self._copies else self._ensure_copied(region)
        self._copies[region][off:off + 8] = (value & MASK64).to_bytes(8, "little")
        if self.auditor is not None:
            self.auditor.check_cow_containment(self, addr, 8)
        return extra

    def load_byte(self, addr: int) -> int:
        region = addr // self.region_size
        if region not in self._mapped_regions:
            self._validate(region, addr, 1)
        copy = self._copies.get(region)
        if copy is None:
            return self.mem.raw_read(addr, 1)[0]
        return copy[addr - region * self.region_size]

    def store_byte(self, addr: int, value: int) -> int:
        region = addr // self.region_size
        if region not in self._mapped_regions:
            self._validate(region, addr, 1)
        extra = 0 if region in self._copies else self._ensure_copied(region)
        self._copies[region][addr - region * self.region_size] = value & 0xFF
        if self.auditor is not None:
            self.auditor.check_cow_containment(self, addr, 1)
        return extra

    # -- bulk interface (SpecHint runtime) -------------------------------------------

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Speculation-visible bytes (used for path strings and the like).

        Zero- and negative-length ranges raise the typed fault instead of
        silently returning nothing: a degenerate range is always a bug in
        the shadow code, and silent truncation would let speculation run
        on with garbage.
        """
        if length <= 0:
            raise SpeculationFault(
                f"zero-length speculative read at {addr:#x} (length {length})"
            )
        return self._read(addr, length)

    def write_bytes(self, addr: int, payload: bytes) -> int:
        """Bulk speculative write (e.g. cached read data into a buffer);
        returns first-copy cycle costs."""
        if not payload:
            raise SpeculationFault(
                f"zero-length speculative write at {addr:#x}"
            )
        return self._write(addr, payload)

    def read_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """NUL-terminated string as speculation sees it.

        The scan never leaves the mapped segment containing ``addr``: a
        string that would cross the segment (shadow-region) boundary
        raises the typed fault explicitly rather than relying on per-byte
        validity of whatever lies beyond.
        """
        seg_end = self.mem.segment_end(addr)
        if seg_end is None:
            raise SpeculationFault(
                f"speculative string at unmapped address {addr:#x}"
            )
        limit = min(max_len, seg_end - addr)
        size = self.region_size
        out = bytearray()
        cursor = addr
        end = addr + limit
        while cursor < end:
            region = cursor // size
            base = region * size
            stop = min(end, base + size)
            copy = self._copies.get(region)
            if copy is None:
                chunk = self.mem.raw_read(cursor, stop - cursor)
            else:
                chunk = copy[cursor - base:stop - base]
            nul = chunk.find(b"\0")
            if nul >= 0:
                out += chunk[:nul]
                return bytes(out)
            out += chunk
            cursor = stop
        if limit < max_len:
            raise SpeculationFault(
                f"speculative string at {addr:#x} crosses the region "
                f"boundary at {seg_end:#x}"
            )
        raise SpeculationFault(f"unterminated speculative string at {addr:#x}")

    def precopy_range(self, addr: int, length: int) -> int:
        """Eagerly copy every region covering [addr, addr+length).

        Used for the restart-time stack copy: the speculating thread works
        on a private copy of the original thread's stack, which also lets
        stack-relative accesses skip COW checks (paper footnote 3).
        Returns the number of bytes copied.  Zero- and negative-length
        ranges raise the typed fault (callers must skip empty copies
        explicitly; a silent no-op here masked bad restart arithmetic).
        """
        if length <= 0:
            raise SpeculationFault(
                f"degenerate precopy range [{addr:#x}+{length}]"
            )
        self._check(addr, length)
        size = self.region_size
        first = addr // size
        last = (addr + length - 1) // size
        copied = 0
        for region in range(first, last + 1):
            if self._ensure_copied(region):
                copied += size
        return copied
