"""Executable passive blocks: the multi-read-pointer ring kernel and its
behavioral specializations (simple FIFO, passive fork, gain-fork, passive
interleaver).

Pointers are unbounded monotonic counters; slots are addressed index mod
capacity, which avoids the full/empty wraparound ambiguity. A slot is
reused only once the slowest read pointer has passed it. The interleaver
keeps one write pointer per write port and exposes the end of their
contiguous written prefix as its wptr.
"""

from .errors import (
    BufferEmptyError,
    BufferFullError,
    KernelError,
    UnknownPortError,
)


class PassiveKernel:
    """Bounded token store with one write pointer and one independent read
    pointer per read port. Every read port observes the exact write
    sequence (after the optional write transform), first-in first-out.
    Write and read port names match the corresponding actor's port names
    so schedulers can bind producer/consumer ports without extra tables."""

    write_ports = ("in",)
    read_ports = ("out",)

    def __init__(self, capacity, write_transform=None):
        if capacity < 1:
            raise KernelError("capacity must be >= 1")
        self.capacity = capacity
        self._slots = [None] * capacity
        self.wptr = 0
        self.rptr = [0] * len(self.read_ports)
        self._low = 0  # min(self.rptr), kept up to date by read()
        self._read_index = {name: i for i, name in enumerate(self.read_ports)}
        self._transform = write_transform
        self.stores = 0

    def _require_write(self, port):
        if port not in self.write_ports:
            raise UnknownPortError(f"unknown write port {port!r}")

    def _rindex(self, port):
        try:
            return self._read_index[port]
        except KeyError:
            raise UnknownPortError(f"unknown read port {port!r}") from None

    def _free(self):
        return self.capacity - (self.wptr - self._low)

    def _store(self, token):
        wptr = self.wptr
        if wptr - self._low >= self.capacity:
            raise BufferFullError(f"ring full (capacity {self.capacity})")
        if self._transform is not None:
            token = self._transform(token)
        self._slots[wptr % self.capacity] = token
        self.wptr = wptr + 1
        self.stores += 1

    def writable(self, port):
        """Number of tokens currently admissible on this write port."""
        self._require_write(port)
        return self._free()

    def write(self, port, token):
        self._require_write(port)
        self._store(token)

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


class SimpleFifo(PassiveKernel):
    """Single-reader FIFO backing a dataflow edge."""

    kind = "simple"


class PassiveFork(PassiveKernel):
    """One write port, m read pointers over the same stored stream; the
    broadcast happens by reading, with no per-output copies."""

    kind = "fork"

    def __init__(self, capacity, fanout):
        if fanout < 1:
            raise KernelError("fork fanout must be >= 1")
        self.read_ports = tuple(f"out{i}" for i in range(fanout))
        super().__init__(capacity)


class GainFork(PassiveKernel):
    """Fork ring that scales each token by a constant at write time, so
    the multiplication happens once regardless of the reader count."""

    kind = "gain-fork"

    def __init__(self, capacity, gain, fanout=1):
        if fanout < 1:
            raise KernelError("gain-fork fanout must be >= 1")
        self.gain = gain
        self.read_ports = tuple(f"out{i}" for i in range(fanout))
        super().__init__(capacity, write_transform=lambda t: gain * t)


class PassiveInterleave(PassiveKernel):
    """Two write ports feeding one ring: "re" token i occupies global index
    2i and "im" token i index 2i+1. Each write port keeps its own next
    index, so either writer may run ahead of the other into its own free
    slots; wptr is the end of the contiguous written prefix, which is all
    the read ports see of the interleaved stream."""

    kind = "interleave"
    write_ports = ("re", "im")

    def __init__(self, capacity, read_fanout=1):
        if read_fanout < 1:
            raise KernelError("interleave needs at least one read port")
        self.read_ports = tuple(f"out{i}" for i in range(read_fanout))
        super().__init__(capacity)
        self.next = {"re": 0, "im": 1}

    def writable(self, port):
        self._require_write(port)
        # this port's free indices: next, next + 2, ... below _low + capacity
        return (self._low + self.capacity - self.next[port] + 1) // 2

    def write(self, port, token):
        self._require_write(port)
        i = self.next[port]
        if i - self._low >= self.capacity:
            raise BufferFullError(f"ring full for {port!r} (capacity {self.capacity})")
        self._slots[i % self.capacity] = token
        self.next[port] = i + 2
        self.wptr = min(self.next.values())
        self.stores += 1


def capacity_rule(kind, input_capacities):
    """Ring capacity for a newly passivized block, from the capacities of
    the simple buffers that previously fed it. Fork-style kernels keep the
    producer-side capacity; the interleaver holds a full interleaved
    window, i.e. the sum of its two data inputs."""
    caps = list(input_capacities)
    if kind in ("simple", "fork", "gain-fork"):
        if len(caps) != 1:
            raise KernelError(f"{kind} kernel expects exactly one input buffer, got {len(caps)}")
        return caps[0]
    if kind == "interleave":
        if len(caps) != 2:
            raise KernelError(f"interleave kernel expects two input buffers, got {len(caps)}")
        return caps[0] + caps[1]
    raise KernelError(f"no capacity rule for kind {kind!r}")
