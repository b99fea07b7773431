"""Page residency accounting for Table 6.

The paper reports three memory side-effects of speculation: a larger
*footprint* (shadow code, COW copies, hint log), more *page reclaims*, and
more *page faults*.  Its footnote explains the platform model: "at least one
third of the memory-resident pages are not physically mapped, as determined
by an LRU policy.  A page reclaim occurs if a referenced page is still in
memory but is not physically mapped".

We model exactly that: every resident page is either *mapped* or *unmapped*;
the mapped set holds at most two thirds of the resident pages, managed LRU.

* first touch of a page        -> page fault  (and the page becomes mapped)
* touch of an unmapped page    -> page reclaim (the page becomes mapped,
                                  possibly unmapping the LRU mapped page)
* touch of a mapped page       -> refresh its LRU position
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Set, Tuple

from repro.params import PAGE_SIZE


class PageAccounting:
    """Footprint / reclaim / fault model for one process."""

    def __init__(self) -> None:
        #: LRU of physically mapped pages (page number -> None).
        self._mapped: "OrderedDict[int, None]" = OrderedDict()
        #: Resident but unmapped pages.
        self._unmapped: Set[int] = set()
        #: The last page of the LRU (the most recently referenced one), or
        #: -1 before any: touching it again is a HIT that changes nothing,
        #: so translated code (``vm/blocks.py``) skips the call for it.
        #: Shrinking never unmaps it (the mapped set keeps at least one page).
        self.mru = -1
        self.faults = 0
        self.reclaims = 0

    # -- derived ------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._mapped) + len(self._unmapped)

    @property
    def footprint_bytes(self) -> int:
        """Maximum memory physically mapped on behalf of the process.

        All pages stay resident in this model (no swapping of a single
        process's pages under memory pressure is simulated), so the
        footprint is the total distinct pages ever touched.
        """
        return self.resident_pages * PAGE_SIZE

    def _mapped_capacity(self) -> int:
        # At most two thirds of resident pages are mapped (at least 1).
        return max(1, (2 * self.resident_pages) // 3)

    #: touch_page outcomes.
    HIT = 0
    RECLAIM = 1
    FAULT = 2

    # -- touch paths ----------------------------------------------------------

    def touch_page(self, page: int) -> int:
        """Reference one page; returns HIT, RECLAIM or FAULT."""
        mapped = self._mapped
        self.mru = page
        if page in mapped:
            mapped.move_to_end(page)
            return self.HIT
        if page in self._unmapped:
            self._unmapped.discard(page)
            self.reclaims += 1
            outcome = self.RECLAIM
        else:
            self.faults += 1
            outcome = self.FAULT
        mapped[page] = None
        self._shrink_mapped()
        return outcome

    def touch_range(self, addr: int, length: int) -> Tuple[int, int]:
        """Reference every page overlapping [addr, addr+length); returns
        (reclaims, faults) incurred."""
        if length <= 0:
            return (0, 0)
        first = addr // PAGE_SIZE
        last = (addr + length - 1) // PAGE_SIZE
        reclaims = faults = 0
        for page in range(first, last + 1):
            outcome = self.touch_page(page)
            if outcome == self.RECLAIM:
                reclaims += 1
            elif outcome == self.FAULT:
                faults += 1
        return (reclaims, faults)

    def touch_addr(self, addr: int) -> int:
        return self.touch_page(addr // PAGE_SIZE)

    def preload_page(self, page: int) -> None:
        """Make a page resident without counting a fault or reclaim.

        Used for pages the loader maps at exec time (text, initialized
        data) — the paper's fault counts are tiny because program images
        are not demand-faulted block by block on its platform either.
        """
        if page in self._mapped or page in self._unmapped:
            return
        self._mapped[page] = None
        self.mru = page
        self._shrink_mapped()

    def _shrink_mapped(self) -> None:
        capacity = self._mapped_capacity()
        while len(self._mapped) > capacity:
            page, _ = self._mapped.popitem(last=False)
            self._unmapped.add(page)
