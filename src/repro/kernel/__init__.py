"""The simulated kernel.

Provides what the paper's design requires of the operating system: strictly
prioritized preemptive kernel threads, the UNIX file system calls, TIP's
hint ioctls, signal handling for the speculating thread, and page-residency
accounting (Table 6's footprint / reclaims / faults).
"""
