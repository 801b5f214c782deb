import random

import pytest

from pafg.actors import default_library
from pafg.dataflow import ActorLibrary
from pafg.errors import (
    BufferEmptyError,
    BufferFullError,
    KernelError,
    OutOfTurnWriteError,
    UnknownPortError,
)
from pafg.kernels import (
    GainFork,
    PassiveFork,
    PassiveInterleave,
    SimpleFifo,
    capacity_rule,
)
from pafg.runtime import check_mapping_equivalence
from pafg.transform import derive_direct_pafg, passivize_fixpoint
from topologies import fork_graph, gain_fork_graph, gain_then_fork_graph, interleave_graph

LIB = default_library()


def test_fifo_order():
    fifo = SimpleFifo(4)
    for v in (1.0, 2.0, 3.0):
        fifo.write("in", v)
    assert [fifo.read("out") for _ in range(3)] == [1.0, 2.0, 3.0]


def test_fresh_kernel_counts():
    fork = PassiveFork(4, fanout=2)
    assert fork.population("out0") == 0
    assert fork.writable("in") == 4


def test_fork_broadcast_population():
    fork = PassiveFork(8, fanout=2)
    fork.write("in", 7.0)
    assert fork.population("out0") == 1
    assert fork.population("out1") == 1
    assert fork.read("out0") == 7.0
    assert fork.read("out1") == 7.0


def test_fork_independent_pointers():
    fork = PassiveFork(8, fanout=2)
    fork.write("in", 1.0)
    fork.write("in", 2.0)
    assert [fork.read("out0"), fork.read("out0")] == [1.0, 2.0]
    assert fork.population("out1") == 2


def test_fork_interleaved_reads():
    fork = PassiveFork(8, fanout=2)
    fork.write("in", 1.0)
    fork.write("in", 2.0)
    seq = [fork.read("out0"), fork.read("out1"), fork.read("out0"), fork.read("out1")]
    assert seq == [1.0, 1.0, 2.0, 2.0]


def test_read_empty_errors():
    fork = PassiveFork(4, fanout=2)
    with pytest.raises(BufferEmptyError):
        fork.read("out0")


def test_write_full_errors():
    fifo = SimpleFifo(2)
    fifo.write("in", 1.0)
    fifo.write("in", 2.0)
    with pytest.raises(BufferFullError):
        fifo.write("in", 3.0)


def test_slowest_reader_limits_space():
    # capacity 4, 3 writes, one read on out0: free space tracks min pointer
    fork = PassiveFork(4, fanout=2)
    for v in (1.0, 2.0, 3.0):
        fork.write("in", v)
    fork.read("out0")
    assert fork.population("out0") == 2
    assert fork.population("out1") == 3
    assert fork.writable("in") == 1


def test_drained_kernel_recovers_capacity():
    fork = PassiveFork(4, fanout=2)
    for v in (1.0, 2.0, 3.0):
        fork.write("in", v)
    for port in ("out0", "out1"):
        while fork.population(port):
            fork.read(port)
    assert fork.writable("in") == 4


def test_unknown_ports():
    fork = PassiveFork(4, fanout=2)
    with pytest.raises(UnknownPortError):
        fork.write("bogus", 1.0)
    with pytest.raises(UnknownPortError):
        fork.population("out9")


def test_gain_fork_write_transform():
    gf = GainFork(4, gain=2.0, fanout=2)
    gf.write("in", 3.0)
    assert gf.read("out0") == 6.0
    assert gf.read("out1") == 6.0


def test_interleave_sequencing():
    il = PassiveInterleave(8, read_fanout=1)
    il.write("re", 1.0)
    il.write("im", 10.0)
    il.write("re", 2.0)
    il.write("im", 20.0)
    assert [il.read("out0") for _ in range(4)] == [1.0, 10.0, 2.0, 20.0]


def test_interleave_out_of_turn():
    il = PassiveInterleave(8)
    with pytest.raises(OutOfTurnWriteError):
        il.write("im", 1.0)
    il.write("re", 1.0)
    assert il.writable("re") == 0
    assert il.writable("im") == 1
    with pytest.raises(OutOfTurnWriteError):
        il.write("re", 2.0)


def test_interleave_index_parity():
    il = PassiveInterleave(16, read_fanout=2)
    re_vals = [1.0, 2.0, 3.0]
    im_vals = [10.0, 20.0, 30.0]
    for r, i in zip(re_vals, im_vals):
        il.write("re", r)
        il.write("im", i)
    stream = [il.read("out1") for _ in range(6)]
    assert stream[0::2] == re_vals
    assert stream[1::2] == im_vals


def test_capacity_rule():
    assert capacity_rule("fork", [100]) == 100
    assert capacity_rule("simple", [64]) == 64
    assert capacity_rule("gain-fork", [1]) == 1
    assert capacity_rule("interleave", [100, 100]) == 200
    with pytest.raises(KernelError):
        capacity_rule("fork", [1, 2])
    with pytest.raises(KernelError):
        capacity_rule("interleave", [1])


def test_ring_invariants_under_random_admissible_ops():
    rng = random.Random(42)
    fork = PassiveFork(7, fanout=3)
    ports = fork.read_ports
    written = []
    read_count = {port: 0 for port in ports}
    for step in range(5000):
        choices = []
        if fork.writable("in") > 0:
            choices.append(None)
        for port in ports:
            if fork.population(port) > 0:
                choices.append(port)
        op = rng.choice(choices)
        if op is None:
            fork.write("in", float(step))
            written.append(float(step))
        else:
            value = fork.read(op)
            assert value == written[read_count[op]]
            read_count[op] += 1
        assert 0 <= fork.wptr - min(fork.rptr) <= fork.capacity
        for port in ports:
            assert 0 <= fork.population(port) <= fork.capacity


def direct_and_passivized(graph):
    direct = derive_direct_pafg(graph, LIB)
    passivized, log = passivize_fixpoint(direct, LIB)
    assert log, "the fixture's buffer actor must be passivized"
    return direct, passivized


def test_fork_mapping_equivalence():
    ok, div = check_mapping_equivalence(
        *direct_and_passivized(fork_graph()), LIB, {"in": [1.0, 2.0, 3.0]}
    )
    assert ok, div


def test_gain_fork_mapping_equivalence():
    reference = derive_direct_pafg(gain_then_fork_graph(k=2.0), LIB)
    _, candidate = direct_and_passivized(gain_fork_graph(k=2.0))
    ok, div = check_mapping_equivalence(reference, candidate, LIB, {"in": [3.0]})
    assert ok, div


def test_fused_gain_fork_actor_matches_kernel():
    ok, div = check_mapping_equivalence(
        *direct_and_passivized(gain_fork_graph(k=1.5)), LIB, {"in": [1.0, -2.0, 0.5]}
    )
    assert ok, div


def test_interleave_mapping_equivalence():
    streams = {"re": [1.0, 2.0], "im": [10.0, 20.0]}
    ok, div = check_mapping_equivalence(
        *direct_and_passivized(interleave_graph(fanout=2, capacity=8)), LIB, streams
    )
    assert ok, div


class DroppingFork(PassiveFork):
    """Stores only every other written token."""

    def __init__(self, capacity, fanout):
        super().__init__(capacity, fanout)
        self._calls = 0

    def write(self, port, token):
        self._calls += 1
        if self._calls % 2 == 1:
            super().write(port, token)


def test_harness_detects_divergence():
    dropping = ActorLibrary()
    for kind in ("src", "snk"):
        dropping.register(kind, LIB.entry(kind).active_factory)
    dropping.register(
        "fork",
        LIB.entry("fork").active_factory,
        lambda spec, capacity: DroppingFork(capacity, fanout=spec.param("fanout")),
    )
    ok, div = check_mapping_equivalence(
        *direct_and_passivized(fork_graph()), dropping, {"in": [1.0, 2.0, 3.0]}
    )
    assert not ok
    assert div.index == 1
    assert div.left == 2.0


def test_harness_reports_stall():
    # the passive interleaver refuses a second "im" write before a "re"
    with pytest.raises(KernelError):
        check_mapping_equivalence(
            *direct_and_passivized(interleave_graph()), LIB, {"re": [1.0], "im": [2.0, 3.0]}
        )
