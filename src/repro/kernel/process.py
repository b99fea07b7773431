"""Processes and file descriptor state."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import BadFileDescriptor
from repro.fs.filesystem import Inode
from repro.fs.readahead import ReadAheadState
from repro.kernel.thread import PRIO_ORIGINAL, PRIO_SPECULATING, Thread, ThreadState
from repro.kernel.vmstat import PageAccounting
from repro.vm.binary import Binary
from repro.vm.memory import AddressSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spechint.runtime import SpecProcessState

#: First file descriptor handed out by open() (0-2 are stdio).
FIRST_FD = 3
STDOUT_FD = 1
STDERR_FD = 2


class FdState:
    """One open file description."""

    __slots__ = ("fd", "inode", "offset", "ra_state", "path")

    def __init__(self, fd: int, inode: Optional[Inode], path: str) -> None:
        self.fd = fd
        #: None for stdio descriptors.
        self.inode = inode
        self.offset = 0
        #: Sequential read-ahead state for this open file.
        self.ra_state = ReadAheadState()
        self.path = path


class Process:
    """One simulated process: address space, threads, fds, speculation state."""

    def __init__(self, pid: int, binary: Binary) -> None:
        self.pid = pid
        self.binary = binary
        self.name = binary.name
        self.mem = AddressSpace(binary.data)
        self.vmstat = PageAccounting()

        self.fds: Dict[int, FdState] = {
            STDOUT_FD: FdState(STDOUT_FD, None, "<stdout>"),
            STDERR_FD: FdState(STDERR_FD, None, "<stderr>"),
        }
        self._next_fd = FIRST_FD

        self.threads: List[Thread] = []
        main = Thread(0, "original", self, PRIO_ORIGINAL)
        main.pc = binary.entry_point
        main.regs[29] = self.mem.stack_top  # sp
        self.threads.append(main)

        #: SpecHint per-process state; attached when the binary is a
        #: speculating executable (see repro.spechint.runtime).
        self.spec: Optional["SpecProcessState"] = None

        self.exited = False
        self.exit_code: int = 0
        #: Bytes the program wrote to stdout/stderr (observable output,
        #: used by correctness tests: transformed == original).
        self.output = bytearray()
        #: Demand-read trace: (ino, offset, length) per original-thread
        #: read call, in program order.  The differential oracle asserts
        #: this sequence is identical with speculation on and off —
        #: hinting may only change *timing*, never *which* data the
        #: application demands.
        self.read_trace: List[Tuple[int, int, int]] = []

        # Footprint: the loader maps the executable image (no demand
        # faults counted) plus the initialized data segment.
        self.vmstat.touch_range(self.mem.data_start, max(1, len(binary.data)))
        self._account_image_pages(binary)

    def _account_image_pages(self, binary: Binary) -> None:
        """Count the executable image as resident pages.

        Text is not data-addressable (Harvard layout) but occupies real
        memory; it is accounted as synthetic pages outside the data range.
        Benchmark binaries declare their full-scale executable size
        (a SpecVM program is far smaller than a statically linked Alpha
        executable); a transformed binary's modelled size includes the
        shadow code and support libraries, which is what makes the
        speculating executables' footprints larger (Table 6).
        """
        from repro.params import PAGE_SIZE

        meta = getattr(binary, "spec_meta", None)
        if meta is not None and meta.report is not None:
            image_bytes = meta.report.transformed_size_bytes
        else:
            image_bytes = getattr(binary, "declared_size_bytes", None) or \
                binary.size_bytes
        base_page = 1 << 40  # synthetic page range for the image
        for page in range(base_page, base_page + max(1, image_bytes // PAGE_SIZE) + 1):
            self.vmstat.preload_page(page)

    # -- threads -----------------------------------------------------------

    @property
    def original_thread(self) -> Thread:
        return self.threads[0]

    @property
    def spec_thread(self) -> Optional[Thread]:
        for t in self.threads:
            if t.is_spec:
                return t
        return None

    def add_spec_thread(self) -> Thread:
        """Spawn the low-priority speculating thread (starts idle)."""
        thread = Thread(len(self.threads), "speculating", self, PRIO_SPECULATING,
                        is_spec=True)
        thread.state = ThreadState.SPEC_IDLE
        self.threads.append(thread)
        return thread

    # -- fds ----------------------------------------------------------------

    def open_fd(self, inode: Inode, path: str) -> FdState:
        fd = self._next_fd
        self._next_fd += 1
        state = FdState(fd, inode, path)
        self.fds[fd] = state
        return state

    def fd(self, fd_num: int) -> FdState:
        state = self.fds.get(fd_num)
        if state is None:
            raise BadFileDescriptor(f"pid {self.pid}: fd {fd_num}")
        return state

    def close_fd(self, fd_num: int) -> None:
        if fd_num not in self.fds:
            raise BadFileDescriptor(f"pid {self.pid}: close fd {fd_num}")
        del self.fds[fd_num]

    def exit(self, code: int) -> None:
        self.exited = True
        self.exit_code = code
        for thread in self.threads:
            thread.exit()
