"""Executable passive blocks: one multi-read-pointer ring kernel. A simple
FIFO, a passive fork, a gain-fork and a passive interleaver are the same
ring with different write ports, read ports and per-token transform.

Pointers are unbounded monotonic counters; slots are addressed index mod
capacity, which avoids the full/empty wraparound ambiguity. A slot is
reused only once the slowest read pointer has passed it. Write port j of
m stores its i-th token at global index m*i + j and keeps its own next
index, so each writer may run ahead into its own free slots; wptr, all
the read ports see, is the contiguous written prefix cut to whole groups
of m, so a ring of m write ports needs capacity m or more.
Tokens move as slices: write_n stores a sequence on one write port and
read_n takes the next n tokens of one read port, wrapping around the end
of the slot list; write and read are their one-token forms. write_n copies
each token once, straight into its slot, and keeps no reference to the
caller's sequence.
"""

from .errors import (
    BufferEmptyError,
    BufferFullError,
    KernelError,
    UnknownPortError,
)


_IN, _OUT, _OUT_INDEX = ("in",), ("out",), {"out": 0}  # the simple ring's; never written


class PassiveKernel:
    """Bounded token store with one next index per write port and one
    independent read pointer per read port. Every read port observes the
    exact interleaved write sequence (after the optional transform), first
    in first out. Port names match the corresponding actor's port names so
    the engine can bind producer/consumer ports without extra tables. A
    simple ring (the default ports) shares constant port maps."""

    def __init__(self, capacity, write_ports=_IN, read_ports=_OUT, transform=None):
        if capacity < 1:
            raise KernelError("capacity must be >= 1")
        if not write_ports or not read_ports:
            raise KernelError("a ring needs at least one write port and one read port")
        self.write_ports = write_ports = tuple(write_ports)
        self.read_ports = read_ports = tuple(read_ports)
        self._stride = m = len(write_ports)
        if capacity < m:
            raise KernelError(f"a ring with {m} write ports needs capacity >= {m}, got {capacity}")
        self.capacity = capacity
        self._slots = [None] * capacity
        simple = write_ports is _IN and read_ports is _OUT  # tuple() keeps a tuple as it is
        self.next = {"in": 0} if simple else dict(zip(write_ports, range(m)))
        self.wptr = 0
        self.rptr = [0] * len(read_ports)
        self._low = 0  # min(self.rptr), kept up to date by read_n()
        self._read_index = _OUT_INDEX if simple else dict(zip(read_ports, range(len(read_ports))))
        self._transform = transform
        self.stores = 0

    def _rindex(self, port):
        try:
            return self._read_index[port]
        except KeyError:
            raise UnknownPortError(f"unknown read port {port!r}") from None

    def _windex(self, port):
        try:
            return self.next[port]
        except KeyError:
            raise UnknownPortError(f"unknown write port {port!r}") from None

    def _free(self, i):
        """Free indices i, i + m, ... below _low + capacity."""
        m = self._stride
        return (self._low + self.capacity - i + m - 1) // m

    def writable(self, port):
        """Number of tokens currently admissible on this write port."""
        return self._free(self._windex(port))

    def write_n(self, port, tokens):
        """Store a sequence of tokens on one write port, after the
        transform. Write port j of m fills every m-th index, so the tokens
        go to the slots of next, next + m, ... in one strided slice, or in
        two when the write wraps round the end of the slot list."""
        i = self._windex(port)
        n = len(tokens)
        if n > self._free(i):
            raise BufferFullError(f"ring full for {port!r} (capacity {self.capacity})")
        if self._transform is not None:
            tokens = [self._transform(t) for t in tokens]
        slots, c, m = self._slots, self.capacity, self._stride
        pos = i % c
        fit = (c - pos + m - 1) // m  # the tokens that fit before the end
        if n <= fit:
            slots[pos:pos + m * n:m] = tokens
        else:
            # the free indices span at most capacity, so one wrap suffices
            slots[pos::m] = tokens[:fit]
            pos += m * fit - c
            slots[pos:pos + m * (n - fit):m] = tokens[fit:]
        self.next[port] = i + m * n
        self.wptr = i + n if m == 1 else (w := min(self.next.values())) - w % m  # whole groups
        self.stores += n

    def write(self, port, token):
        self.write_n(port, (token,))

    def population(self, port):
        return self.wptr - self.rptr[self._rindex(port)]

    def read_n(self, port, n):
        """Take the next n tokens of one read port, as a list."""
        rptr = self.rptr
        i = self._rindex(port)
        r = rptr[i]
        if self.wptr - r < n:
            raise BufferEmptyError(
                f"read port {port!r} is empty" if self.wptr == r
                else f"read port {port!r} holds {self.wptr - r} of {n} tokens"
            )
        rptr[i] = r + n
        if r == self._low:
            self._low = min(rptr)
        c = self.capacity
        start = r % c
        end = start + n
        if end <= c:
            return self._slots[start:end]
        return self._slots[start:] + self._slots[:end - c]

    def read(self, port):
        return self.read_n(port, 1)[0]

    def populations(self):
        return {p: self.population(p) for p in self.read_ports}
