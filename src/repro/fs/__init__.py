"""Simulated file system substrate.

Provides inodes with real byte contents (benchmark programs parse headers and
offsets out of what they read), the block cache (mechanism only: replacement
and prefetching are decided by :class:`repro.tip.manager.TipManager`, the
kernel's cache manager), and the Digital UNIX sequential read-ahead policy
described in the paper's Section 4.
"""

from repro.fs.cache import BlockCache, CacheEntry, EntryState, FetchOrigin
from repro.fs.filesystem import FileSystem, Inode
from repro.fs.readahead import SequentialReadAhead

__all__ = [
    "BlockCache",
    "CacheEntry",
    "EntryState",
    "FetchOrigin",
    "FileSystem",
    "Inode",
    "SequentialReadAhead",
]
