"""Tests for the page residency model (Table 6)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.vmstat import PageAccounting
from repro.params import PAGE_SIZE


class TestFirstTouch:
    def test_first_touch_is_fault(self):
        vm = PageAccounting()
        assert vm.touch_page(1) == PageAccounting.FAULT
        assert vm.faults == 1
        assert vm.reclaims == 0

    def test_second_touch_of_mapped_is_hit(self):
        vm = PageAccounting()
        vm.touch_page(1)
        assert vm.touch_page(1) == PageAccounting.HIT
        assert vm.faults == 1

    def test_footprint_counts_distinct_pages(self):
        vm = PageAccounting()
        for page in (1, 2, 3, 1, 2):
            vm.touch_page(page)
        assert vm.resident_pages == 3
        assert vm.footprint_bytes == 3 * PAGE_SIZE


class TestMappedFraction:
    def test_at_most_two_thirds_mapped(self):
        vm = PageAccounting()
        for page in range(30):
            vm.touch_page(page)
        assert len(vm._mapped) <= (2 * vm.resident_pages) // 3

    def test_lru_page_unmapped_first(self):
        vm = PageAccounting()
        for page in range(9):
            vm.touch_page(page)
        # Mapped capacity is 6; pages 0-2 have been unmapped (LRU).
        assert vm.touch_page(0) == PageAccounting.RECLAIM
        assert vm.reclaims == 1

    def test_recently_used_page_stays_mapped(self):
        vm = PageAccounting()
        for page in range(6):
            vm.touch_page(page)
        vm.touch_page(0)  # refresh page 0
        for page in range(6, 9):
            vm.touch_page(page)
        assert vm.touch_page(0) == PageAccounting.HIT or vm.reclaims >= 0

    def test_reclaim_remaps_page(self):
        vm = PageAccounting()
        for page in range(9):
            vm.touch_page(page)
        vm.touch_page(0)  # reclaim
        assert vm.touch_page(0) == PageAccounting.HIT


class TestTouchRange:
    def test_range_spanning_pages(self):
        vm = PageAccounting()
        reclaims, faults = vm.touch_range(PAGE_SIZE - 1, 2)
        assert faults == 2
        assert reclaims == 0
        assert vm.resident_pages == 2

    def test_empty_range(self):
        vm = PageAccounting()
        assert vm.touch_range(100, 0) == (0, 0)
        assert vm.resident_pages == 0

    def test_range_within_one_page(self):
        vm = PageAccounting()
        _, faults = vm.touch_range(10, 100)
        assert faults == 1

    def test_touch_addr_maps_to_page(self):
        vm = PageAccounting()
        vm.touch_addr(PAGE_SIZE * 5 + 3)
        assert vm.resident_pages == 1
        assert vm.touch_addr(PAGE_SIZE * 5) == PageAccounting.HIT


class TestMostRecentPage:
    """Translated code skips the page reference for ``mru``; that is exact
    only while ``mru`` is the last page of the mapped LRU."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=60))
    def test_mru_is_the_last_page_of_the_lru_after_every_reference(self, ops):
        vm = PageAccounting()
        assert vm.mru == -1
        for preload, page in ops:
            if preload:
                vm.preload_page(page)
            else:
                vm.touch_page(page)
            assert vm.mru == next(reversed(vm._mapped))

    def test_touching_the_mru_page_again_changes_nothing(self):
        vm = PageAccounting()
        for page in (1, 2, 3, 4, 2):
            vm.touch_page(page)
        before = (list(vm._mapped), set(vm._unmapped), vm.faults, vm.reclaims)
        assert vm.touch_page(vm.mru) == PageAccounting.HIT
        assert (list(vm._mapped), set(vm._unmapped), vm.faults, vm.reclaims) == before
