"""Executable passive blocks: one multi-read-pointer ring kernel. A simple
FIFO, a passive fork, a gain-fork and a passive interleaver are the same
ring with different write ports, read ports and per-token transform.

Pointers are unbounded monotonic counters; slots are addressed index mod
capacity, which avoids the full/empty wraparound ambiguity. A slot is
reused only once the slowest read pointer has passed it. Write port j of
m stores its i-th token at global index m*i + j and keeps its own next
index, so each writer may run ahead into its own free slots; wptr is the
end of the contiguous written prefix, which is all the read ports see.
"""

from .errors import (
    BufferEmptyError,
    BufferFullError,
    KernelError,
    UnknownPortError,
)


class PassiveKernel:
    """Bounded token store with one next index per write port and one
    independent read pointer per read port. Every read port observes the
    exact interleaved write sequence (after the optional transform), first
    in first out. Port names match the corresponding actor's port names so
    the engine can bind producer/consumer ports without extra tables."""

    def __init__(self, capacity, write_ports=("in",), read_ports=("out",), transform=None):
        if capacity < 1:
            raise KernelError("capacity must be >= 1")
        if not write_ports or not read_ports:
            raise KernelError("a ring needs at least one write port and one read port")
        self.capacity = capacity
        self.write_ports = write_ports = tuple(write_ports)
        self.read_ports = read_ports = tuple(read_ports)
        self._slots = [None] * capacity
        self._stride = m = len(write_ports)
        self.next = dict(zip(write_ports, range(m)))
        self.wptr = 0
        self.rptr = [0] * len(read_ports)
        self._low = 0  # min(self.rptr), kept up to date by read()
        self._read_index = dict(zip(read_ports, range(len(read_ports))))
        self._transform = transform
        self.stores = 0

    def _rindex(self, port):
        try:
            return self._read_index[port]
        except KeyError:
            raise UnknownPortError(f"unknown read port {port!r}") from None

    def writable(self, port):
        """Number of tokens currently admissible on this write port: its
        free indices next, next + m, ... below _low + capacity."""
        try:
            i = self.next[port]
        except KeyError:
            raise UnknownPortError(f"unknown write port {port!r}") from None
        m = self._stride
        return (self._low + self.capacity - i + m - 1) // m

    def write(self, port, token):
        try:
            i = self.next[port]
        except KeyError:
            raise UnknownPortError(f"unknown write port {port!r}") from None
        if i - self._low >= self.capacity:
            raise BufferFullError(f"ring full for {port!r} (capacity {self.capacity})")
        if self._transform is not None:
            token = self._transform(token)
        self._slots[i % self.capacity] = token
        m = self._stride
        self.next[port] = i + m
        self.wptr = i + 1 if m == 1 else min(self.next.values())
        self.stores += 1

    def population(self, port):
        return self.wptr - self.rptr[self._rindex(port)]

    def read(self, port):
        rptr = self.rptr
        i = self._rindex(port)
        r = rptr[i]
        if self.wptr == r:
            raise BufferEmptyError(f"read port {port!r} is empty")
        rptr[i] = r + 1
        if r == self._low:
            self._low = min(rptr)
        return self._slots[r % self.capacity]

    def populations(self):
        return {p: self.population(p) for p in self.read_ports}

