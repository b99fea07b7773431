"""Deterministic fault injection and graceful degradation.

The paper's safety claim — speculative pre-execution "can never hurt
correctness" — is only interesting when something actually goes wrong.
This package supplies the wrong: seeded, reproducible fault plans that
make disks fail transiently, crawl, or drop offline; that lose or corrupt
TIP hints in the channel; and that force the speculating thread down the
wrong path.  The rest of the stack (retry policy in the striped array,
silent prefetch dropping in the cache managers, the speculation gate)
must degrade gracefully: every run under every fault plan produces output
byte-identical to the fault-free run.
"""
