import pytest

from pafg.actors import (
    GainActor,
    VarSourceActor,
    WindowAverageActor,
    default_library,
)
from pafg.dataflow import ActorSpec, AppGraphBuilder
from pafg.errors import DuplicateEdgeError, ModelError, UnknownKindError, UnknownVertexError
from pafg.runtime import instantiate
from pafg.transform import derive_direct_pafg


def one_block_instance(block, kind, source_data=None, capacity=4, **params):
    """SRC -> block -> one sink per output port over direct FIFOs. The
    source emits source_data (none by default), so the tests preload the
    FIFOs to set the block's input populations and output space."""
    lib = default_library()
    actor = lib.make_active(ActorSpec(block, kind, params))
    b = AppGraphBuilder().actor("SRC", "src").actor(block, kind, **params)
    b.edge("SRC.out", f"{block}.{actor.input_ports[0]}", capacity=capacity)
    for port in actor.output_ports:
        b.actor(f"SNK_{port}", "snk")
        b.edge(f"{block}.{port}", f"SNK_{port}.in", capacity=capacity)
    z = derive_direct_pafg(b.build(), lib)
    return instantiate(z, lib, {"SRC": source_data or []})


def test_fork_enable_true_when_fed():
    inst = one_block_instance("F", "fork", fanout=2)
    inst.kernels["SRC.out->F.in"].write("in", 7.0)
    # one sweep in name order: the fork fires, then its sinks drain
    stats = inst.run(max_iterations=1)
    assert stats.token_stores == 2
    assert inst.sink_streams() == {"SNK_out0": [7.0], "SNK_out1": [7.0]}


def test_fork_enable_false_without_input():
    inst = one_block_instance("F", "fork", fanout=2)
    stats = inst.run(max_iterations=1)
    assert stats.token_stores == 0
    assert inst.kernels["F.out0->SNK_out0.in"].writable("in") == 4


def test_gain_enable_false_without_space():
    inst = one_block_instance("G", "gain", capacity=1, k=2.0)
    inst.kernels["SRC.out->G.in"].write("in", 5.0)
    inst.kernels["G.out->SNK_out.in"].write("in", 1.0)
    stats = inst.run(max_iterations=1)
    assert stats.token_stores == 0
    assert inst.kernels["SRC.out->G.in"].population("out") == 1
    inst.run()
    assert inst.sink_streams() == {"SNK_out": [1.0, 10.0]}


def test_enable_is_side_effect_free():
    # the source's output is full during the first sweep: probing it there
    # must not consume any of its data
    inst = one_block_instance("G", "gain", source_data=[1.0, 2.0], capacity=1)
    inst.kernels["SRC.out->G.in"].write("in", 0.0)
    inst.run(max_iterations=1, order=["SRC", "G", "SNK_out"])
    assert inst.actors["SRC"].remaining() == 2
    inst.run()
    assert inst.sink_streams() == {"SNK_out": [0.0, 1.0, 2.0]}


def test_multi_rate_enable_waits_for_full_rate():
    inst = one_block_instance("M", "ref-mag")
    feed = inst.kernels["SRC.out->M.in"]
    feed.write("in", 3.0)
    assert inst.run(max_iterations=1).token_stores == 0
    assert feed.population("out") == 1
    feed.write("in", 4.0)
    assert inst.run(max_iterations=1).token_stores == 1
    assert inst.sink_streams() == {"SNK_out": [25.0]}


def test_fork_invoke_broadcasts():
    fork = default_library().make_active(ActorSpec("f", "fork", {"fanout": 2}))
    assert fork.invoke({"in": [7.0]}) == {"out0": [7.0], "out1": [7.0]}


def test_gain_invoke():
    gain = GainActor("g", k=2.0)
    assert gain.invoke({"in": [3.0]}) == {"out": [6.0]}


def test_var_source_two_mode_cycle():
    src = VarSourceActor("s")
    src.bind([2, 10.0, 20.0])
    emitted = []
    assert src.mode == "emit-length"
    out = src.invoke({})
    emitted += out["len"] + out["out"]
    assert src.mode == "emit-data"
    for _ in range(2):
        out = src.invoke({})
        emitted += out["len"] + out["out"]
    assert src.mode == "emit-length"
    assert emitted == [2, 10.0, 20.0]
    assert len(emitted) == 1 + 2


def test_var_source_remaining_counts_down():
    src = VarSourceActor("s")
    src.bind([2, 10.0, 20.0, 1, 30.0])
    seen = [src.remaining()]
    while src.ready():
        src.invoke({})
        seen.append(src.remaining())
    assert seen == [5, 4, 3, 2, 1, 0]
    src.bind([1, 5.0])
    assert (src.remaining(), src.mode) == (2, "emit-length")


def test_avg_windowed_mean():
    avg = WindowAverageActor("a")
    assert avg.mode == "read-length"
    avg.invoke({"len": [3]})
    assert avg.mode == "accumulate"
    avg.invoke({"in": [1.0]})
    avg.invoke({"in": [2.0]})
    assert avg.mode == "finish"
    out = avg.invoke({"in": [6.0]})
    assert out == {"out": [3.0]}
    assert avg.mode == "read-length"


def test_avg_single_sample_window():
    avg = WindowAverageActor("a")
    avg.invoke({"len": [1]})
    assert avg.mode == "finish"
    assert avg.invoke({"in": [5.0]}) == {"out": [5.0]}


def test_avg_rejects_bad_length():
    avg = WindowAverageActor("a")
    with pytest.raises(ModelError):
        avg.invoke({"len": [0]})


def test_rate_conformance_across_modes():
    avg = WindowAverageActor("a")
    consume, produce = avg.rates()
    assert consume == {"len": 1, "in": 0}
    avg.invoke({"len": [2]})
    consume, produce = avg.rates()
    assert consume == {"len": 0, "in": 1} and produce == {"out": 0}
    avg.invoke({"in": [1.0]})
    consume, produce = avg.rates()
    assert produce == {"out": 1}


def test_library_buffer_actors():
    lib = default_library()
    assert lib.is_buffer_actor("fork")
    assert lib.is_buffer_actor("interleave")
    assert lib.is_buffer_actor("gain-fork")
    assert not lib.is_buffer_actor("rms-ratio")
    assert not lib.is_buffer_actor("gain")
    with pytest.raises(UnknownKindError):
        lib.is_buffer_actor("warp")


def test_library_make_active():
    lib = default_library()
    actor = lib.make_active(ActorSpec("f", "fork", {"fanout": 3}))
    assert actor.output_ports == ("out0", "out1", "out2")


def chain_builder():
    return (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "gain", k=2.0)
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=4)
        .edge("B.out", "C.in", capacity=4)
    )


def test_builder_round_trip():
    g = chain_builder().build()
    assert set(g.actors) == {"A", "B", "C"}
    assert g.edge("A", "B").snk_port == "in"
    assert g.actor("B").param("k") == 2.0


def test_builder_rejects_double_port_binding():
    b = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "snk")
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=1)
        .edge("A.out", "C.in", capacity=1)
    )
    with pytest.raises(ModelError):
        b.build()


def test_builder_rejects_bad_capacity():
    # one builder throughout: a rejected edge must leave nothing behind
    b = AppGraphBuilder().actor("A", "src").actor("B", "snk")
    for bad in (0, -3, 2.5, "abc", True):
        with pytest.raises(ModelError):
            b.edge("A.out", "B.in", capacity=bad)
    with pytest.raises(UnknownVertexError):
        b.edge("A.out", "C.in", capacity=1)
    b.edge("A.out", "B.in", capacity=1)
    with pytest.raises(DuplicateEdgeError):
        b.edge("A.out", "B.in", capacity=2)
    g = b.build()
    assert g.edge("A", "B").capacity == 1 and g.graph.edges == {("A", "B")}


def test_builder_rejects_bad_endpoint():
    b = AppGraphBuilder().actor("A", "src").actor("B", "snk")
    with pytest.raises(ModelError):
        b.edge("A", "B.in", capacity=1)
