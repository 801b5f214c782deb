import random

import pytest

from kahn_reference import COMPLETE, kahn_streams, kahn_verdicts
from pafg.actors import default_library
from pafg.dataflow import ActorLibrary, ActorSpec, AppGraphBuilder
from pafg.errors import (
    BufferEmptyError,
    BufferFullError,
    KernelError,
    UnknownPortError,
)
from pafg.kernels import PassiveKernel
from pafg.transform import derive_direct_pafg, passivize_fixpoint
from topologies import fork_graph, gain_fork_graph, gain_then_fork_graph, interleave_graph

LIB = default_library()


def ring(kind, capacity, **params):
    """The passive form of one buffer actor of this kind."""
    return LIB.make_passive(ActorSpec("B", kind, params), capacity)


def test_fifo_order():
    fifo = PassiveKernel(4)
    w, r = fifo.write_index("in"), fifo.read_index("out")
    for v in (1.0, 2.0, 3.0):
        fifo.write(w, [v])
    assert fifo.read(r, 3) == [1.0, 2.0, 3.0]


def test_fresh_kernel_counts():
    fork = ring("fork", 4, fanout=2)
    assert fork.population(fork.read_index("out0")) == 0
    assert fork.writable(fork.write_index("in")) == 4


def test_ring_needs_capacity_and_ports():
    for args in ((0,), (4, ()), (4, ("in",), ())):
        with pytest.raises(KernelError):
            PassiveKernel(*args)


@pytest.mark.parametrize("capacity", [True, False, 2.0, None, "4", -1])
def test_capacity_is_an_int_of_at_least_one(capacity):
    with pytest.raises(KernelError, match=f"capacity must be an int >= 1, got {capacity!r}"):
        PassiveKernel(capacity)
    with pytest.raises(KernelError, match=f"got {capacity!r}"):
        ring("fork", capacity, fanout=2)


def test_ports_resolve_to_positions():
    il = ring("interleave", 4, fanout=3)
    assert [il.write_index(p) for p in ("re", "im")] == [0, 1]
    assert [il.read_index(p) for p in ("out0", "out1", "out2")] == [0, 1, 2]
    with pytest.raises(UnknownPortError, match="unknown write port 'out0'"):
        il.write_index("out0")
    with pytest.raises(UnknownPortError, match="unknown read port 're'"):
        il.read_index("re")


def test_fork_broadcast_population():
    fork = ring("fork", 8, fanout=2)
    out0, out1 = fork.read_index("out0"), fork.read_index("out1")
    fork.write(fork.write_index("in"), [7.0])
    assert fork.population(out0) == 1
    assert fork.population(out1) == 1
    assert fork.read(out0, 1) == [7.0]
    assert fork.read(out1, 1) == [7.0]


def test_fork_independent_pointers():
    fork = ring("fork", 8, fanout=2)
    w, out0, out1 = fork.write_index("in"), fork.read_index("out0"), fork.read_index("out1")
    fork.write(w, [1.0])
    fork.write(w, [2.0])
    assert fork.read(out0, 1) + fork.read(out0, 1) == [1.0, 2.0]
    assert fork.population(out1) == 2


def test_fork_interleaved_reads():
    fork = ring("fork", 8, fanout=2)
    w, out0, out1 = fork.write_index("in"), fork.read_index("out0"), fork.read_index("out1")
    fork.write(w, [1.0])
    fork.write(w, [2.0])
    seq = [fork.read(out0, 1), fork.read(out1, 1), fork.read(out0, 1), fork.read(out1, 1)]
    assert seq == [[1.0], [1.0], [2.0], [2.0]]


def test_read_empty_errors():
    fork = ring("fork", 4, fanout=2)
    with pytest.raises(BufferEmptyError, match="read port 'out0' is empty"):
        fork.read(fork.read_index("out0"), 1)


def test_write_full_errors():
    fifo = PassiveKernel(2)
    w = fifo.write_index("in")
    fifo.write(w, [1.0])
    fifo.write(w, [2.0])
    with pytest.raises(BufferFullError, match="ring full for 'in'"):
        fifo.write(w, [3.0])


def test_slowest_reader_limits_space():
    # capacity 4, 3 writes, one read on out0: free space tracks min pointer
    fork = ring("fork", 4, fanout=2)
    w, out0, out1 = fork.write_index("in"), fork.read_index("out0"), fork.read_index("out1")
    for v in (1.0, 2.0, 3.0):
        fork.write(w, [v])
    fork.read(out0, 1)
    assert fork.population(out0) == 2
    assert fork.population(out1) == 3
    assert fork.writable(w) == 1


def test_drained_kernel_recovers_capacity():
    fork = ring("fork", 4, fanout=2)
    w = fork.write_index("in")
    for v in (1.0, 2.0, 3.0):
        fork.write(w, [v])
    for port in ("out0", "out1"):
        i = fork.read_index(port)
        while fork.population(i):
            fork.read(i, 1)
    assert fork.writable(w) == 4


def test_unknown_ports():
    fork = ring("fork", 4, fanout=2)
    with pytest.raises(UnknownPortError):
        fork.write_index("bogus")
    with pytest.raises(UnknownPortError):
        fork.write_index("out0")
    with pytest.raises(UnknownPortError):
        fork.read_index("out9")


def test_gain_fork_write_transform():
    gf = ring("gain-fork", 4, k=2.0, fanout=2)
    gf.write(gf.write_index("in"), [3.0])
    assert gf.read(gf.read_index("out0"), 1) == [6.0]
    assert gf.read(gf.read_index("out1"), 1) == [6.0]


def test_interleave_sequencing():
    il = ring("interleave", 8, fanout=1)
    re, im, out = il.write_index("re"), il.write_index("im"), il.read_index("out0")
    il.write(re, [1.0])
    il.write(im, [10.0])
    il.write(re, [2.0])
    il.write(im, [20.0])
    assert il.read(out, 4) == [1.0, 10.0, 2.0, 20.0]


def test_interleave_writers_run_ahead():
    il = ring("interleave", 8)
    re, im, out = il.write_index("re"), il.write_index("im"), il.read_index("out0")
    assert il.writable(re) == 4
    for v in (1.0, 2.0, 3.0, 4.0):
        il.write(re, [v])
        assert il.population(out) == 0  # no whole (re, im) pair yet
    assert il.writable(re) == 0
    with pytest.raises(BufferFullError, match="ring full for 're'"):
        il.write(re, [5.0])
    assert il.writable(im) == 4
    il.write(im, [10.0])
    assert il.population(out) == 2  # the pair (1.0, 10.0); 2.0 waits for its partner
    for v in (20.0, 30.0, 40.0):
        il.write(im, [v])
    assert il.read(out, 8) == [1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]


def test_interleave_index_parity():
    il = ring("interleave", 16, fanout=2)
    re, im, out1 = il.write_index("re"), il.write_index("im"), il.read_index("out1")
    re_vals = [1.0, 2.0, 3.0]
    im_vals = [10.0, 20.0, 30.0]
    for r, i in zip(re_vals, im_vals):
        il.write(re, [r])
        il.write(im, [i])
    stream = il.read(out1, 6)
    assert stream[0::2] == re_vals
    assert stream[1::2] == im_vals


@pytest.mark.parametrize("kind, params", [
    ("fork", {"fanout": 3}),
    ("gain-fork", {"k": 2.0, "fanout": 2}),
    ("interleave", {"fanout": 2}),
])
def test_passive_form_has_the_active_ports(kind, params):
    spec = ActorSpec("B", kind, params)
    actor = LIB.make_active(spec)
    kernel = LIB.make_passive(spec, 4)
    assert kernel.write_ports == actor.input_ports
    assert kernel.read_ports == actor.output_ports


@pytest.mark.parametrize("write_ports, capacity, fanout", [
    pytest.param(("in",), 7, 3, id="in-7-3"),
    pytest.param(("in",), 1, 1, id="in-1-1"),
    pytest.param(("in",), 4, 2, id="in-4-2"),
    *(
        pytest.param(("re", "im"), capacity, fanout, id=f"{capacity}-{fanout}")
        for capacity, fanout in [(1, 1), (2, 3), (5, 2), (8, 1), (9, 3)]
    ),
])
def test_interleave_invariants_under_random_admissible_ops(write_ports, capacity, fanout):
    """Every ring interleaves its m write ports; with m = 1 it is a plain
    FIFO or fork ring."""
    rng = random.Random(100 * len(write_ports) + 10 * capacity + fanout)
    read_ports = tuple(f"out{i}" for i in range(fanout))
    m = len(write_ports)
    if capacity < m:  # a whole group of m tokens never fits
        with pytest.raises(KernelError, match=f"{m} write ports needs capacity >= {m}"):
            PassiveKernel(capacity, write_ports, read_ports)
        return
    kernel = PassiveKernel(capacity, write_ports, read_ports)
    assert [kernel.write_index(p) for p in write_ports] == list(range(m))
    assert [kernel.read_index(p) for p in read_ports] == list(range(fanout))
    written = [[] for _ in write_ports]
    read_count = [0] * fanout
    for step in range(4000):  # an op is write position j < m, or m + read position i
        choices = [j for j in range(m) if kernel.writable(j) > 0]
        choices += [m + i for i in range(fanout) if kernel.population(i) > 0]
        op = rng.choice(choices)
        if op < m:
            kernel.write(op, [float(step)])
            written[op].append(float(step))
        else:
            i = op - m
            n = read_count[i]
            # the n-th token of every read port is token n // m of writer n % m
            assert kernel.read(i, 1) == [written[n % m][n // m]]
            read_count[i] = n + 1
        for j in range(m):
            if kernel.writable(j) == 0:
                with pytest.raises(BufferFullError):
                    kernel.write(j, [-1.0])
        assert kernel.stores == sum(len(tokens) for tokens in written)
        assert 0 <= kernel.wptr - min(kernel.rptr) <= kernel.capacity
        assert kernel.wptr % m == 0  # the read ports see whole groups only
        for i in range(fanout):
            assert 0 <= kernel.population(i) <= kernel.capacity
    assert min(read_count) > 0


def direct_and_passivized(graph):
    direct = derive_direct_pafg(graph, LIB)
    passivized, log = passivize_fixpoint(direct, LIB)
    assert log, "the fixture's buffer actor must be passivized"
    return direct, passivized


def test_fork_mapping_equivalence():
    graph = fork_graph()
    verdicts = kahn_verdicts(graph, direct_and_passivized(graph), LIB, {"in": [1.0, 2.0, 3.0]})
    assert verdicts == [COMPLETE] * 2


def test_gain_fork_mapping_equivalence():
    # the fused actor and its ring against the unfused gain and fork
    verdicts = kahn_verdicts(
        gain_then_fork_graph(k=2.0), direct_and_passivized(gain_fork_graph(k=2.0)),
        LIB, {"in": [3.0]},
    )
    assert verdicts == [COMPLETE] * 2


def test_fused_gain_fork_actor_matches_kernel():
    graph = gain_fork_graph(k=1.5)
    verdicts = kahn_verdicts(
        graph, direct_and_passivized(graph), LIB, {"in": [1.0, -2.0, 0.5]}
    )
    assert verdicts == [COMPLETE] * 2


def test_interleave_mapping_equivalence():
    graph = interleave_graph(fanout=2, capacity=8)
    streams = {"re": [1.0, 2.0], "im": [10.0, 20.0]}
    assert kahn_verdicts(graph, direct_and_passivized(graph), LIB, streams) == [COMPLETE] * 2


class DroppingFork(PassiveKernel):
    """Stores only every other written token."""

    def __init__(self, capacity, write_ports, read_ports):
        super().__init__(capacity, write_ports, read_ports)
        self._written = 0

    def write(self, j, tokens):
        kept = [t for i, t in enumerate(tokens, self._written) if i % 2 == 0]
        self._written += len(tokens)
        super().write(j, kept)


class StallingFork(PassiveKernel):
    """Admits one token, then reports a full ring for good."""

    def writable(self, j):
        super().writable(j)  # rejects a position the ring does not have
        return 0 if self.stores else 1


def library_with_fork_kernel(kernel_class):
    lib = ActorLibrary()
    for kind in ("src", "snk"):
        lib.register(kind, LIB.entry(kind).active_factory)
    fork = LIB.entry("fork").active_factory

    def passive(spec, capacity):
        actor = fork(spec)
        return kernel_class(capacity, actor.input_ports, actor.output_ports)

    lib.register("fork", fork, passive)
    return lib


def test_harness_detects_divergence():
    direct, passivized = kahn_verdicts(
        fork_graph(),
        direct_and_passivized(fork_graph()),
        library_with_fork_kernel(DroppingFork),
        {"in": [1.0, 2.0, 3.0]},
    )
    assert direct == COMPLETE
    divergence, left = passivized
    assert (divergence.sink, divergence.index, divergence.left) == ("out0", 1, 2.0)
    assert left == []


def test_harness_reports_stall():
    direct, passivized = kahn_verdicts(
        fork_graph(),
        direct_and_passivized(fork_graph()),
        library_with_fork_kernel(StallingFork),
        {"in": [1.0, 2.0, 3.0]},
    )
    assert direct == COMPLETE
    divergence, left = passivized
    assert (divergence.index, divergence.right) == (1, None)  # a short stream
    assert left == ["in"]


def test_interleave_unpaired_tokens_are_equivalent():
    # both forms drain both sources; the unpaired "im" token stays buffered
    graph = interleave_graph()
    streams = {"re": [1.0], "im": [2.0, 3.0]}
    assert kahn_verdicts(graph, direct_and_passivized(graph), LIB, streams) == [COMPLETE] * 2


def test_interleave_does_not_expose_an_unpaired_re_token():
    # the mirror case: "re" is the longer stream. The active interleave
    # emits whole pairs only, so the passive ring must not show 3.0 either
    graph = (
        AppGraphBuilder()
        .actor("R", "src")
        .actor("I", "src")
        .actor("IL", "interleave")
        .actor("K", "snk")
        .edge("R.out", "IL.re", capacity=4)
        .edge("I.out", "IL.im", capacity=4)
        .edge("IL.out0", "K.in", capacity=4)
        .build()
    )
    data = {"R": [1.0, 3.0], "I": [2.0]}
    assert kahn_streams(graph, LIB, data) == {"K": [1.0, 2.0]}
    assert kahn_verdicts(graph, direct_and_passivized(graph), LIB, data) == [COMPLETE] * 2


@pytest.mark.parametrize("seed", range(12))
def test_slices_match_per_token_reads_and_writes(seed):
    """Random read/write sequences of slices, wraparound, stride-2
    writers, a transform and read pointers that differ, on one ring; the
    same operations one token per call on a twin ring."""
    rng = random.Random(seed)
    write_ports = rng.choice([("in",), ("re", "im")])
    read_ports = tuple(f"out{i}" for i in range(rng.randint(1, 3)))
    transform = rng.choice([None, lambda t: 2.0 * t + 1.0])
    capacity = rng.randint(1, 9)
    if capacity < len(write_ports):
        with pytest.raises(KernelError, match="needs capacity >= 2"):
            PassiveKernel(capacity, write_ports, read_ports, transform)
        capacity = len(write_ports)
    sliced, reference = (
        PassiveKernel(capacity, write_ports, read_ports, transform) for _ in range(2)
    )
    for step in range(600):
        port = rng.choice(write_ports + read_ports)
        if port in write_ports:
            j = reference.write_index(port)
            assert sliced.write_index(port) == j
            n = rng.randint(0, reference.writable(j))
            tokens = [float(100 * step + i) for i in range(n)]
            sliced.write(j, tokens)
            for token in tokens:
                reference.write(j, [token])
        else:
            i = reference.read_index(port)
            assert sliced.read_index(port) == i
            n = rng.randint(0, reference.population(i))
            assert sliced.read(i, n) == [reference.read(i, 1)[0] for _ in range(n)]
        assert sliced._slots == reference._slots
        assert (sliced.wptr, sliced.rptr, sliced.next, sliced.stores) == (
            reference.wptr, reference.rptr, reference.next, reference.stores
        )
    assert reference.stores > 0


def test_slices_reject_what_does_not_fit():
    il = ring("interleave", 5)
    re, im, out = il.write_index("re"), il.write_index("im"), il.read_index("out0")
    assert il.writable(re) == 3
    with pytest.raises(BufferFullError):
        il.write(re, [1.0, 2.0, 3.0, 4.0])
    il.write(re, [1.0, 2.0, 3.0])
    il.write(im, [10.0])
    assert il.population(out) == 2  # whole (re, im) pairs only
    with pytest.raises(BufferEmptyError, match="read port 'out0' holds 2 of 3"):
        il.read(out, 3)
    assert il.read(out, 2) == [1.0, 10.0]
    assert il.stores == 4
    with pytest.raises(UnknownPortError):
        il.write_index("bogus")
    with pytest.raises(UnknownPortError):
        il.read_index("out9")


@pytest.mark.parametrize("change", [list.clear, lambda t: t.__setitem__(slice(None), [-1.0] * len(t))],
                         ids=["cleared", "overwritten"])
@pytest.mark.parametrize("wraps", [False, True], ids=["fits", "wraps"])
@pytest.mark.parametrize("write_ports", [("in",), ("re", "im")], ids=["m1", "m2"])
def test_ring_keeps_no_reference_to_the_written_list(write_ports, wraps, change):
    """write copies the tokens into the slots, so changing the caller's
    list afterwards changes nothing the ring returns."""
    m = len(write_ports)
    kernel = PassiveKernel(8, write_ports)
    positions = [kernel.write_index(port) for port in write_ports]
    out = kernel.read_index("out")
    if wraps:
        # every writer and the reader move to index 6, two slots before the end
        for j in positions:
            kernel.write(j, [0.0] * (6 // m))
        kernel.read(out, 6)
    batches = [[float(10 * j + i) for i in range(8 // m)] for j in range(m)]
    expected = [t for tokens in zip(*batches) for t in tokens]
    for j, tokens in zip(positions, batches):
        kernel.write(j, tokens)
    for tokens in batches:
        change(tokens)
    assert kernel.read(out, 8) == expected
