"""Tests for the process address space."""

import pytest

from repro.errors import IllegalAddress
from repro.vm.memory import (
    DATA_BASE,
    SPACE_SIZE,
    SPEC_HEAP_BASE,
    STACK_TOP,
    AddressSpace,
)


@pytest.fixture
def mem():
    return AddressSpace(b"hello world" + b"\x00" * 100)


class TestLayout:
    def test_data_image_loaded(self, mem):
        assert mem.read_bytes(DATA_BASE, 5) == b"hello"

    def test_null_guard_faults(self, mem):
        with pytest.raises(IllegalAddress):
            mem.load_word(0)
        with pytest.raises(IllegalAddress):
            mem.load_byte(100)

    def test_stack_range_valid(self, mem):
        mem.store_word(STACK_TOP - 8, 42)
        assert mem.load_word(STACK_TOP - 8) == 42

    def test_below_stack_limit_faults(self, mem):
        with pytest.raises(IllegalAddress):
            mem.store_word(mem.stack_limit - 8, 1)

    def test_gap_between_heap_and_stack_faults(self, mem):
        with pytest.raises(IllegalAddress):
            mem.load_word(mem.heap_max + 8)


class TestSbrk:
    def test_sbrk_returns_old_break(self, mem):
        old = mem.brk
        assert mem.sbrk(4096) == old
        assert mem.brk == old + 4096

    def test_sbrk_zero_queries(self, mem):
        old = mem.brk
        assert mem.sbrk(0) == old
        assert mem.brk == old

    def test_sbrk_grows_valid_region(self, mem):
        addr = mem.sbrk(64)
        mem.store_word(addr, 7)
        assert mem.load_word(addr) == 7

    def test_sbrk_negative_rejected(self, mem):
        with pytest.raises(IllegalAddress):
            mem.sbrk(-8)

    def test_sbrk_beyond_limit_rejected(self, mem):
        with pytest.raises(IllegalAddress):
            mem.sbrk(1 << 40)

    def test_spec_sbrk_separate_region(self, mem):
        addr = mem.spec_sbrk(128)
        assert addr == SPEC_HEAP_BASE
        mem.store_word(addr, 9)
        assert mem.load_word(addr) == 9
        # Process heap untouched.
        assert mem.brk < SPEC_HEAP_BASE


class TestTypedAccess:
    def test_word_roundtrip(self, mem):
        mem.store_word(DATA_BASE + 32, 0xDEADBEEF)
        assert mem.load_word(DATA_BASE + 32) == 0xDEADBEEF

    def test_word_wraps_to_64_bits(self, mem):
        mem.store_word(DATA_BASE + 32, (1 << 64) + 5)
        assert mem.load_word(DATA_BASE + 32) == 5

    def test_byte_roundtrip(self, mem):
        mem.store_byte(DATA_BASE + 8, 0x1FF)
        assert mem.load_byte(DATA_BASE + 8) == 0xFF

    def test_little_endian(self, mem):
        mem.store_word(DATA_BASE + 40, 0x0102030405060708)
        assert mem.load_byte(DATA_BASE + 40) == 0x08

    def test_read_cstring(self, mem):
        assert mem.read_cstring(DATA_BASE + 6) == b"world"

    def test_read_cstring_unterminated(self):
        mem = AddressSpace(b"x" * 16)  # no NUL before data end... padded 0s
        # Fill a region with non-zero bytes right up to the break.
        mem.write_bytes(DATA_BASE, b"\x01" * (mem.brk - DATA_BASE))
        with pytest.raises(IllegalAddress):
            mem.read_cstring(DATA_BASE, max_len=mem.brk - DATA_BASE)

    def test_write_bytes_validates(self, mem):
        with pytest.raises(IllegalAddress):
            mem.write_bytes(mem.brk, b"xx")

    def test_raw_access_skips_validation(self, mem):
        # raw_read of an unmapped region returns stale zeroes, no fault.
        assert mem.raw_read(mem.heap_max + 64, 4) == b"\x00" * 4

    def test_raw_write_past_the_end_raises_and_cannot_grow_the_space(self, mem):
        # The unvalidated path: the backing store itself must refuse.
        with pytest.raises(IndexError):
            mem.raw_write(SPACE_SIZE - 4, b"x" * 8)
        assert mem.raw_read(SPACE_SIZE - 4, 64) == b"\x00" * 4
