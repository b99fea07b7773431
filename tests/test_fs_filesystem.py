"""Tests for inodes and the simulated file system."""

import pytest

from repro.errors import (
    FileExistsInFS,
    FileNotFoundInFS,
    FileSystemError,
    InvalidBlockError,
)
from repro.fs.filesystem import FileSystem, Inode
from repro.params import BLOCK_SIZE


class TestInode:
    def test_size_and_blocks(self):
        inode = Inode(0, "a", b"x" * (BLOCK_SIZE + 1), 0)
        assert inode.size == BLOCK_SIZE + 1
        assert inode.nblocks == 2

    def test_empty_file_occupies_one_block(self):
        assert Inode(0, "a", b"", 0).nblocks == 1

    def test_lbn_of_block(self):
        inode = Inode(0, "a", b"x" * (3 * BLOCK_SIZE), first_lbn=10)
        assert inode.lbn_of_block(0) == 10
        assert inode.lbn_of_block(2) == 12

    def test_lbn_out_of_range(self):
        inode = Inode(0, "a", b"x" * BLOCK_SIZE, 0)
        with pytest.raises(InvalidBlockError):
            inode.lbn_of_block(1)
        with pytest.raises(InvalidBlockError):
            inode.lbn_of_block(-1)

    def test_read_at(self):
        inode = Inode(0, "a", b"hello world", 0)
        assert inode.read_at(6, 5) == b"world"

    def test_read_truncated_at_eof(self):
        inode = Inode(0, "a", b"hello", 0)
        assert inode.read_at(3, 100) == b"lo"

    def test_read_past_eof_empty(self):
        inode = Inode(0, "a", b"hello", 0)
        assert inode.read_at(10, 5) == b""

    def test_read_negative_offset_rejected(self):
        inode = Inode(0, "a", b"hello", 0)
        with pytest.raises(InvalidBlockError):
            inode.read_at(-1, 5)

    def test_write_at_overwrite(self):
        inode = Inode(0, "a", b"hello", 0)
        inode.write_at(0, b"HE")
        assert bytes(inode.data) == b"HEllo"

    def test_write_at_extends(self):
        inode = Inode(0, "a", b"ab", 0)
        inode.write_at(4, b"xy")
        assert bytes(inode.data) == b"ab\x00\x00xy"
        assert inode.size == 6


def _readonly_view(data):
    return memoryview(bytearray(data)).toreadonly()


@pytest.mark.parametrize("shared", [bytes, _readonly_view])
class TestSharedContents:
    """``bytes`` and read-only views back an inode without being copied,
    and stop backing it at its first write."""

    CONTENT = b"x" * BLOCK_SIZE + b"hello world"

    def test_reads_like_an_owned_file(self, shared):
        source = shared(self.CONTENT)
        inode = Inode(0, "a", source, first_lbn=10)
        owned = Inode(0, "a", bytearray(self.CONTENT), first_lbn=10)
        assert inode.data is source
        assert (inode.size, inode.nblocks) == (owned.size, owned.nblocks)
        assert inode.lbn_of_block(1) == owned.lbn_of_block(1) == 11
        for offset, length in [(0, 4), (BLOCK_SIZE + 6, 5), (BLOCK_SIZE + 9, 100),
                               (len(self.CONTENT) + 5, 5)]:
            got = inode.read_at(offset, length)
            assert type(got) is bytes
            assert got == owned.read_at(offset, length)

    @pytest.mark.parametrize("offset", [0, len(CONTENT) + 3],
                             ids=["overwrite", "extend"])
    def test_a_write_reaches_only_that_inode(self, shared, offset):
        source = shared(self.CONTENT)
        writer = Inode(0, "a", source, 0)
        reader = Inode(1, "b", source, 0)
        writer.write_at(offset, b"HE")
        assert writer.read_at(offset, 2) == b"HE"
        assert writer.data is not source
        assert reader.data is source
        assert bytes(reader.data) == self.CONTENT
        assert bytes(source) == self.CONTENT
        # The private copy is taken once.
        private = writer.data
        writer.write_at(1, b"!")
        assert writer.data is private


class TestOwnedContents:
    def test_an_adopted_bytearray_is_never_copied(self):
        blob = bytearray(b"abc")
        inode = Inode(0, "a", blob, 0)
        inode.write_at(1, b"X")
        inode.write_at(5, b"Y")
        assert inode.data is blob
        assert blob == b"aXc\x00\x00Y"

    def test_a_writable_view_is_copied(self):
        """Sharedness is read off the type: a view that can be written
        through does not promise its bytes will stay put."""
        source = bytearray(b"abc")
        inode = Inode(0, "a", memoryview(source), 0)
        source[0] = ord("z")
        assert inode.read_at(0, 3) == b"abc"
        inode.write_at(0, b"X")
        assert source == b"zbc"

    def test_a_view_of_wider_items_is_copied_as_bytes(self):
        words = memoryview(bytearray(16)).cast("I").toreadonly()
        assert len(words) == 4
        assert Inode(0, "a", words, 0).size == 16


class TestFileSystem:
    def test_create_and_lookup(self):
        fs = FileSystem()
        created = fs.create("dir/file", b"data")
        assert fs.lookup("dir/file") is created
        assert fs.inode(created.ino) is created

    def test_create_adopts_a_bytearray_and_copies_bytes(self):
        fs = FileSystem()
        blob = bytearray(b"abc")
        assert fs.create("adopted", blob).data is blob
        data = b"abc"
        copied = fs.create("copied", data)
        copied.write_at(0, b"x")
        assert copied.read_at(0, 3) == b"xbc"
        assert data == b"abc"

    def test_duplicate_create_rejected(self):
        fs = FileSystem()
        fs.create("a", b"")
        with pytest.raises(FileExistsInFS):
            fs.create("a", b"")

    def test_lookup_missing_raises(self):
        with pytest.raises(FileNotFoundInFS):
            FileSystem().lookup("nope")

    def test_lookup_or_none(self):
        fs = FileSystem()
        assert fs.lookup_or_none("nope") is None
        fs.create("yes", b"")
        assert fs.lookup_or_none("yes") is not None

    def test_inode_bad_number(self):
        with pytest.raises(FileNotFoundInFS):
            FileSystem().inode(0)

    def test_contiguous_allocation_without_jitter(self):
        fs = FileSystem()
        a = fs.create("a", b"x" * (2 * BLOCK_SIZE))
        b = fs.create("b", b"x" * BLOCK_SIZE)
        assert a.first_lbn == 0
        assert b.first_lbn == 2

    def test_total_blocks_covers_all_files(self):
        fs = FileSystem()
        fs.create("a", b"x" * (2 * BLOCK_SIZE))
        fs.create("b", b"x")
        assert fs.total_blocks == 3

    def test_allocation_jitter_leaves_gaps(self):
        fs = FileSystem(allocation_jitter_blocks=16, seed=1)
        previous_end = None
        gaps = []
        for i in range(20):
            inode = fs.create(f"f{i}", b"x" * BLOCK_SIZE)
            if previous_end is not None:
                gaps.append(inode.first_lbn - previous_end)
            previous_end = inode.first_lbn + inode.nblocks
        assert any(g > 0 for g in gaps)
        assert all(g >= 0 for g in gaps)

    def test_jitter_is_deterministic(self):
        def layout(seed):
            fs = FileSystem(allocation_jitter_blocks=16, seed=seed)
            return [fs.create(f"f{i}", b"x").first_lbn for i in range(10)]

        assert layout(5) == layout(5)
        assert layout(5) != layout(6)

    def test_paths_in_creation_order(self):
        fs = FileSystem()
        fs.create("b", b"")
        fs.create("a", b"")
        assert fs.paths() == ["b", "a"]
        assert fs.nfiles == 2


class TestRelease:
    """A released file system keeps its names and addresses; its files
    let go of their bytes and refuse every use."""

    def _released(self):
        fs = FileSystem()
        shared = b"shared bytes"
        owned = bytearray(b"owned bytes")
        fs.create("shared", shared)
        fs.create("owned", owned)
        fs.release()
        return fs, shared, owned

    @pytest.mark.parametrize("use", [
        lambda inode: inode.read_at(0, 4),
        lambda inode: inode.write_at(0, b"x"),
        lambda inode: inode.size,
        lambda inode: inode.nblocks,
    ], ids=["read", "write", "size", "nblocks"])
    def test_a_released_inode_raises(self, use):
        fs, _, _ = self._released()
        for path in fs.paths():
            with pytest.raises(FileSystemError):
                use(fs.lookup(path))

    def test_release_only_drops_references(self):
        fs, shared, owned = self._released()
        assert shared == b"shared bytes"
        assert owned == bytearray(b"owned bytes")
        assert fs.paths() == ["shared", "owned"]
        assert fs.lookup("owned").first_lbn == 1
        assert "released" in repr(fs.lookup("owned"))


def test_a_negative_write_offset_is_refused():
    fs = FileSystem()
    inode = fs.create("out", b"")
    with pytest.raises(InvalidBlockError, match="negative write offset -1"):
        inode.write_at(-1, b"x")
