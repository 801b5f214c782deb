"""Executable passive blocks: one multi-read-pointer ring kernel. A simple
FIFO, a passive fork, a gain-fork and a passive interleaver are the same
ring with different write ports, read ports and per-token transform.

Ports are addressed by position: write_index and read_index resolve a
port name once, raising UnknownPortError for a name the ring does not
have, and every other method takes the position, so moving tokens makes
no name lookup; error texts still name the port. Pointers are unbounded
monotonic counters; slots are addressed index mod capacity, which avoids
the full/empty wraparound ambiguity. A slot is reused only once the
slowest read pointer has passed it. Write port j of m stores its i-th
token at global index m*i + j and keeps its own next index, next[j], so
each writer may run ahead into its own free slots; wptr, all the read
ports see, is the contiguous written prefix cut to whole groups of m, so
a ring of m write ports needs capacity m or more.
Tokens move as slices: write stores a sequence on one write port and
read takes the next n tokens of one read port, wrapping around the end of
the slot list. write copies each token once, straight into its slot, and
keeps no reference to the caller's sequence.
"""

from .dataflow import is_capacity
from .errors import (
    BufferEmptyError,
    BufferFullError,
    KernelError,
    UnknownPortError,
)


class PassiveKernel:
    """Bounded token store with one next index per write port and one
    independent read pointer per read port, both lists in port order.
    Every read port observes the exact interleaved write sequence (after
    the optional transform), first in first out. Port names match the
    corresponding actor's port names so the engine can bind producer and
    consumer ports, by position, without extra tables."""

    def __init__(self, capacity, write_ports=("in",), read_ports=("out",), transform=None):
        if not is_capacity(capacity):
            raise KernelError(f"capacity must be an int >= 1, got {capacity!r}")
        if not write_ports or not read_ports:
            raise KernelError("a ring needs at least one write port and one read port")
        self.write_ports = write_ports = tuple(write_ports)
        self.read_ports = read_ports = tuple(read_ports)
        self._stride = m = len(write_ports)
        if capacity < m:
            raise KernelError(f"a ring with {m} write ports needs capacity >= {m}, got {capacity}")
        self.capacity = capacity
        self._slots = [None] * capacity
        self.next = list(range(m))
        self.wptr = 0
        self.rptr = [0] * len(read_ports)
        self._transform = transform
        self.stores = 0

    def write_index(self, port):
        """The position of a write port, which the other methods take."""
        try:
            return self.write_ports.index(port)
        except ValueError:
            raise UnknownPortError(f"unknown write port {port!r}") from None

    def read_index(self, port):
        """The position of a read port, which the other methods take."""
        try:
            return self.read_ports.index(port)
        except ValueError:
            raise UnknownPortError(f"unknown read port {port!r}") from None

    def writable(self, j):
        """Number of tokens currently admissible on write port j: its free
        indices next[j], next[j] + m, ... below the slowest read pointer
        plus capacity."""
        rptr, m = self.rptr, self._stride
        free = (rptr[0] if len(rptr) == 1 else min(rptr)) + self.capacity - self.next[j]
        return free if m == 1 else (free + m - 1) // m

    def write(self, j, tokens):
        """Store a sequence of tokens on write port j, after the
        transform. Write port j of m fills every m-th index, so the tokens
        go to the slots of next[j], next[j] + m, ... in one strided slice,
        or in two when the write wraps round the end of the slot list; a
        one-writer ring stores a contiguous slice and sets wptr directly."""
        nexts, c, m = self.next, self.capacity, self._stride
        i = nexts[j]
        n = len(tokens)
        if n > self.writable(j):
            raise BufferFullError(f"ring full for {self.write_ports[j]!r} (capacity {c})")
        if self._transform is not None:
            tokens = [self._transform(t) for t in tokens]
        slots = self._slots
        pos = i % c
        if m == 1:
            end = pos + n
            if end <= c:
                slots[pos:end] = tokens
            else:
                slots[pos:], slots[:end - c] = tokens[:c - pos], tokens[c - pos:]
            nexts[0] = self.wptr = i + n
        else:
            fit = (c - pos + m - 1) // m  # the tokens that fit before the end
            if n <= fit:
                slots[pos:pos + m * n:m] = tokens
            else:
                # the free indices span at most capacity, so one wrap suffices
                slots[pos::m] = tokens[:fit]
                pos += m * fit - c
                slots[pos:pos + m * (n - fit):m] = tokens[fit:]
            nexts[j] = i + m * n
            self.wptr = (w := min(nexts)) - w % m  # whole groups
        self.stores += n

    def population(self, i):
        return self.wptr - self.rptr[i]

    def read(self, i, n):
        """Take the next n tokens of read port i, as a list."""
        rptr = self.rptr
        r = rptr[i]
        held = self.wptr - r
        if held < n:
            port = self.read_ports[i]
            raise BufferEmptyError(
                f"read port {port!r} is empty" if not held
                else f"read port {port!r} holds {held} of {n} tokens"
            )
        rptr[i] = r + n
        c = self.capacity
        start = r % c
        end = start + n
        if end <= c:
            return self._slots[start:end]
        return self._slots[start:] + self._slots[:end - c]
