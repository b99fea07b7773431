"""Simulated file system substrate.

Provides inodes with real byte contents (benchmark programs parse headers and
offsets out of what they read), the block cache (mechanism only: replacement
and prefetching are decided by :class:`repro.tip.manager.TipManager`, the
kernel's cache manager), and the Digital UNIX sequential read-ahead policy
described in the paper's Section 4.
"""
