"""TIP: informed prefetching and caching manager — the kernel's cache manager.

Reimplementation of the manager the paper builds on (Patterson et al.,
SOSP'95), exposing the hint interface of the paper's Table 2:

* ``TIPIO_SEG`` — hint one or more (filename, offset, length) segments;
* ``TIPIO_FD_SEG`` — hint one or more (file descriptor, offset, length)
  segments from an open file;
* ``TIPIO_CANCEL_ALL`` — cancel all outstanding hints from the issuing
  process (the one call the authors added to TIP for this paper).

The kernel resolves either kind of segment to an inode
(``Kernel.hint_from``) and hands it to :meth:`TipManager.disclose`;
``TIPIO_CANCEL_ALL`` is :meth:`TipManager.cancel_all`.  With
``consume_hints`` and ``outstanding_hints`` those four calls are the whole
hint surface.

TIP performs cost-benefit prefetching: the benefit of prefetching a hinted
block is discounted by the issuing process's measured hint accuracy and by
the block's distance down the hint queue relative to the prefetch horizon;
the cost side protects hinted blocks near the horizon from eviction and
prefers evicting unhinted LRU blocks or hinted blocks far in the future.
"""
