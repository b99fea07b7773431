"""Disk array substrate.

Models the paper's I/O system: HP C2247-class disks (15 ms average access
time, track-buffer read-ahead) attached behind a striping pseudodevice with a
64 KB striping unit.  The striping device also implements the two knobs the
paper uses for its Figure 6 simulation: delaying completion notification to
simulate a widening processor/disk speed gap, and limiting outstanding
prefetches per disk.
"""
