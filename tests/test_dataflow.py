import copy
import math
import pickle
import random
import struct
from collections import Counter
from dataclasses import fields

import pytest

from pafg.actors import (
    AccumulatorActor,
    ErrorMagnitudeActor,
    GainActor,
    VarSourceActor,
    WindowAverageActor,
    default_library,
)
from pafg.apps import ForkCascadeConfig, build_fork_cascade, fork_cascade_source_data
from pafg.dataflow import (
    ActorLibrary,
    ActorSpec,
    AppGraphBuilder,
    ApplicationGraph,
    DataflowEdge,
    Declaration,
)
from pafg.errors import (
    DuplicateEdgeError,
    ModelError,
    SelfLoopError,
    UnknownKindError,
    UnknownVertexError,
)
from pafg.formats import parse_pafg, serialize_pafg
from pafg.ir import validate_coordinated
from pafg.runtime import instantiate
from pafg.transform import derive_direct_pafg, passivize_fixpoint


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
    feed = inst.kernels["SRC.out->F.in"]
    feed.write(feed.write_index("in"), [7.0])
    # one sweep in name order: the fork fires, then its sinks drain
    stats = inst.run(max_iterations=1)
    assert stats.token_stores == 2
    assert inst.sink_streams() == {"SNK_out0": [7.0], "SNK_out1": [7.0]}


def test_fork_enable_false_without_input():
    inst = one_block_instance("F", "fork", fanout=2)
    stats = inst.run(max_iterations=1)
    assert stats.token_stores == 0
    ring = inst.kernels["F.out0->SNK_out0.in"]
    assert ring.writable(ring.write_index("in")) == 4


def test_gain_enable_false_without_space():
    inst = one_block_instance("G", "gain", capacity=1, k=2.0)
    feed, drain = inst.kernels["SRC.out->G.in"], inst.kernels["G.out->SNK_out.in"]
    feed.write(feed.write_index("in"), [5.0])
    drain.write(drain.write_index("in"), [1.0])
    stats = inst.run(max_iterations=1)
    assert stats.token_stores == 0
    assert feed.population(feed.read_index("out")) == 1
    inst.run()
    assert inst.sink_streams() == {"SNK_out": [1.0, 10.0]}


def test_enable_is_side_effect_free():
    # the source's output is full during the first sweep: probing it there
    # must not consume any of its data
    inst = one_block_instance("G", "gain", source_data=[1.0, 2.0], capacity=1)
    feed = inst.kernels["SRC.out->G.in"]
    feed.write(feed.write_index("in"), [0.0])
    inst.run(max_iterations=1, order=["SRC", "G", "SNK_out"])
    assert inst.actors["SRC"].remaining() == 2
    inst.run()
    assert inst.sink_streams() == {"SNK_out": [0.0, 1.0, 2.0]}


def test_multi_rate_enable_waits_for_full_rate():
    inst = one_block_instance("M", "ref-mag")
    feed = inst.kernels["SRC.out->M.in"]
    w, r = feed.write_index("in"), feed.read_index("out")
    feed.write(w, [3.0])
    assert inst.run(max_iterations=1).token_stores == 0
    assert feed.population(r) == 1
    feed.write(w, [4.0])
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


def test_var_source_rejects_a_negative_window_length():
    src = VarSourceActor("s")
    src.bind([-1, 10.0])
    with pytest.raises(ModelError, match="^s: negative window length -1$"):
        src.invoke({})


@pytest.mark.parametrize("length", [2.5, math.nan, math.inf])
def test_var_source_rejects_a_window_length_that_is_not_whole(length):
    src = VarSourceActor("s")
    src.bind([length, 10.0, 20.0, 30.0])
    with pytest.raises(ModelError, match=f"^s: window length {length!r} is not a whole number$"):
        src.invoke({})


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


@pytest.mark.parametrize("length, message", [
    (0, "must be >= 1, got 0"),
    (2.5, "2.5 is not a whole number"),
    (math.nan, "nan is not a whole number"),
    (-math.inf, "-inf is not a whole number"),
])
def test_avg_rejects_bad_length(length, message):
    avg = WindowAverageActor("a")
    with pytest.raises(ModelError, match=f"^a: window length {message}$"):
        avg.invoke({"len": [length]})


def test_window_lengths_may_be_whole_floats():
    # pafg run reads var-src samples as f64, so a length arrives as 2.0
    src = VarSourceActor("s")
    src.bind([2.0, 10.0, 20.0])
    assert src.invoke({}) == {"len": [2], "out": []}
    avg = WindowAverageActor("a")
    avg.invoke({"len": [2.0]})
    avg.invoke({"in": [1.0]})
    assert avg.invoke({"in": [2.0]}) == {"out": [1.5]}


def test_acc_and_avg_sum_left_to_right():
    """1e16 + 1.0 rounds back to 1e16, so the sum left to right is 0.0; a
    compensated sum (math.fsum, or sum() from Python 3.12) gives 1.0."""
    values = [1e16, 1.0, -1e16]
    assert math.fsum(values) == 1.0
    acc = AccumulatorActor("a")
    acc.invoke({"in": values}, 3)
    assert acc.total == 0.0
    avg = WindowAverageActor("a")
    avg.invoke({"len": [3]})
    avg.invoke({"in": values[:2]}, 2)
    assert avg.invoke({"in": values[2:]}) == {"out": [0.0]}


def _err_mag_three_passes(ref, rec):
    dre = [a - b for a, b in zip(ref[0::2], rec[0::2])]
    dim = [a - b for a, b in zip(ref[1::2], rec[1::2])]
    return [x * x + y * y for x, y in zip(dre, dim)]


_EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                1.7976931348623157e308)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("seed", range(6))
def test_err_mag_batch_matches_single_firings_and_three_passes(seed):
    rng = random.Random(seed)

    def token():
        pick = rng.random()
        if pick < 0.3:
            return rng.choice(_EDGE_VALUES)
        if pick < 0.5:
            return rng.choice((-1, 1)) * rng.uniform(0.5, 1.0) * 1e308
        return rng.uniform(-10.0, 10.0)

    k = rng.randint(1, 40)
    ref = [token() for _ in range(2 * k)]
    rec = [token() for _ in range(2 * k)]
    actor = ErrorMagnitudeActor("E")
    batch = actor.invoke({"ref": ref, "rec": rec}, k)["out"]
    singles = [
        actor.invoke({"ref": ref[2 * i:2 * i + 2], "rec": rec[2 * i:2 * i + 2]})["out"][0]
        for i in range(k)
    ]
    assert len(batch) == k
    assert _bits(batch) == _bits(singles) == _bits(_err_mag_three_passes(ref, rec))


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
    with pytest.raises(UnknownKindError, match="actor kind 'gain' has no passive implementation"):
        lib.make_passive(ActorSpec("G", "gain", {"k": 2.0}), 4)
    with pytest.raises(ModelError, match="actor kind 'fork' already registered"):
        lib.register("fork", lib.entry("fork").active_factory)


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
    assert g.actor("B").params["k"] == 2.0
    with pytest.raises(ModelError, match="unknown actor 'Z'"):
        g.actor("Z")
    with pytest.raises(ModelError, match=r"unknown edge \('B', 'A'\)"):
        g.edge("B", "A")


def test_records_are_values():
    """Equality, hashing and repr read the declared fields only: the derived
    signature and a spec's declaration are neither compared nor shown."""
    e = DataflowEdge("A", "out", "B", "in", 4)
    same = DataflowEdge("A", "out", "B", "in", 4, "f64")
    assert e == same and hash(e) == hash(same) and {e: 1}[same] == 1
    assert e != DataflowEdge("A", "out", "B", "in", 5)
    assert e != DataflowEdge("A", "out", "B", "in", 4, "i64")
    assert repr(e) == (
        "DataflowEdge(src='A', src_port='out', snk='B', snk_port='in', capacity=4, token_type='f64')"
    )
    assert e.signature == "A.out->B.in"
    object.__setattr__(same, "signature", "another")
    assert e == same and hash(e) == hash(same)
    assert [f.name for f in fields(DataflowEdge) if f.compare] == [
        "src", "src_port", "snk", "snk_port", "capacity", "token_type"
    ]

    spec = ActorSpec("F", "fork", {"fanout": 2})
    assert spec == ActorSpec("F", "fork", {"fanout": 2}) != ActorSpec("F", "fork", {"fanout": 3})
    assert repr(spec) == "ActorSpec(name='F', kind='fork', params={'fanout': 2})"
    default_library().declare(spec)
    assert spec == ActorSpec("F", "fork", {"fanout": 2})
    assert repr(spec) == "ActorSpec(name='F', kind='fork', params={'fanout': 2})"
    assert pickle.loads(pickle.dumps(spec)) == spec == copy.deepcopy(spec)
    assert [f.name for f in fields(ActorSpec) if f.compare] == ["name", "kind", "params"]
    with pytest.raises(TypeError):
        hash(ActorSpec("A", "src", {}))  # its params are a dict


def test_edge_table_key_must_match_its_edge():
    g = chain_builder().build()
    edges = {("A", "C"): g.edge("A", "B"), ("B", "C"): g.edge("B", "C")}
    with pytest.raises(ModelError, match=r"edge table key \('A', 'C'\) does not match"):
        ApplicationGraph(g.actors, edges)


def test_actor_named_like_an_edge_signature_is_refused():
    # caught where the graph is built: the edge's simple block and the
    # actor's block would share one name in a PAFG
    b = AppGraphBuilder().actor("A", "src").actor("B", "snk").actor("A.out->B.in", "gain")
    b.edge("A.out", "B.in", capacity=4)
    with pytest.raises(ModelError, match=r"^actor 'A.out->B.in' has the block name of edge "
                                         r"A.out->B.in$"):
        b.build()


def test_actor_table_key_must_match_its_actor():
    # caught where the table is built, not later as a block table fault
    actors = {"A": ActorSpec("B", "src"), "C": ActorSpec("C", "snk")}
    edges = {("A", "C"): DataflowEdge("A", "out", "C", "in", 4)}
    with pytest.raises(ModelError, match="^actor table key 'A' does not match actor 'B'$"):
        ApplicationGraph(actors, edges)


def edge(src, snk):
    return DataflowEdge(src, "out", snk, "in", 4)


def tables(names, *edges):
    """An actor and an edge table built by hand, so the builder checks none
    of them: a gain per name, each edge keyed by its own pair."""
    return {n: ActorSpec(n, "gain") for n in names}, {e.key(): e for e in edges}


# each fault alone, with the class and text ApplicationGraph refuses it with
FAULTS = {
    "dangling-edge": (tables("AB", edge("A", "C")),
                      UnknownVertexError, r"^unknown vertex 'C' in edge \('A', 'C'\)$"),
    "self-loop": (tables("AB", edge("A", "A")), SelfLoopError, r"^self-loop on 'A'$"),
    "actor-named-like-an-edge": (
        tables(["A", "B", "A.out->B.in"], edge("A", "B")),
        ModelError, r"^actor 'A.out->B.in' has the block name of edge A.out->B.in$"),
    "out-port-bound-twice": (tables("ABC", edge("A", "B"), edge("A", "C")),
                             ModelError, r"^port A.out bound to more than one edge$"),
    "in-port-bound-twice": (tables("ABC", edge("A", "C"), edge("B", "C")),
                            ModelError, r"^port C.in bound to more than one edge$"),
    "actor-key": (({"X": ActorSpec("A", "gain")}, {}),
                  ModelError, r"^actor table key 'X' does not match actor 'A'$"),
    "edge-key": (({"A": ActorSpec("A", "gain"), "B": ActorSpec("B", "gain")},
                  {("B", "A"): edge("A", "B")}),
                 ModelError, r"^edge table key \('B', 'A'\) does not match edge \('A', 'B'\)$"),
}


@pytest.mark.parametrize("case", FAULTS)
def test_application_graph_refuses_each_fault_alone(case):
    (actors, edges), cls, text = FAULTS[case]
    with pytest.raises(cls, match=text) as caught:
        ApplicationGraph(actors, edges)
    assert type(caught.value) is cls


def test_application_graph_names_the_first_fault_in_table_order():
    # one pass per table, actors then edges: the first fault met is named
    # whatever its kind, and an edge's endpoints are checked before its ports
    actors, _ = tables("AB")
    loop, dangling = edge("A", "A"), edge("B", "Z")
    with pytest.raises(SelfLoopError):
        ApplicationGraph(actors, {e.key(): e for e in (loop, dangling)})
    with pytest.raises(UnknownVertexError, match="'Z'"):
        ApplicationGraph(actors, {e.key(): e for e in (dangling, loop)})
    misnamed = {"X": ActorSpec("A", "gain"), "B": ActorSpec("B", "gain")}
    with pytest.raises(ModelError, match="^actor table key 'X'"):
        ApplicationGraph(misnamed, {dangling.key(): dangling})
    signed, edges = tables([*"ABCDE", "A.out->B.in"],
                           edge("A", "B"), edge("C", "D"), edge("C", "E"))
    with pytest.raises(ModelError, match="has the block name"):
        ApplicationGraph(signed, edges)
    with pytest.raises(ModelError, match="^port C.out bound to more than one edge"):
        ApplicationGraph(signed, dict(reversed(edges.items())))
    with pytest.raises(ModelError, match="^edge table key"):
        ApplicationGraph(actors, {("A", "B"): loop, dangling.key(): dangling})


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
    e = g.edge("A", "B")
    assert e.capacity == 1 and g.outs == {"A": [e]} and g.ins == {"B": [e]}


def test_builder_rejects_bad_endpoint():
    b = AppGraphBuilder().actor("A", "src").actor("B", "snk")
    with pytest.raises(ModelError):
        b.edge("A", "B.in", capacity=1)


# One spec per kind of the default library, and per fanout of the buffers.
DECLARED_SPECS = [
    ActorSpec("S", "src"),
    ActorSpec("S", "src", {"type": "i64"}),
    ActorSpec("V", "var-src"),
    ActorSpec("K", "snk"),
    ActorSpec("C", "acc"),
    ActorSpec("G", "gain", {"k": 3}),
    *(ActorSpec("F", "fork", {"fanout": n}) for n in (1, 2, 3, 4)),
    ActorSpec("F", "fork"),
    ActorSpec("GF", "gain-fork", {"k": 0.5}),
    ActorSpec("GF", "gain-fork", {"k": 2.0, "fanout": 3}),
    ActorSpec("IL", "interleave"),
    ActorSpec("IL", "interleave", {"fanout": 2}),
    ActorSpec("E", "err-mag"),
    ActorSpec("R", "ref-mag"),
    ActorSpec("A", "avg"),
    ActorSpec("Q", "rms-ratio"),
]


def test_declared_specs_cover_the_library():
    assert {spec.kind for spec in DECLARED_SPECS} == set(default_library()._entries)


@pytest.mark.parametrize("spec", DECLARED_SPECS, ids=lambda s: f"{s.kind}{s.params}")
def test_declaration_agrees_with_the_actor(spec):
    lib = default_library()
    actor = lib.make_active(spec)
    declared = lib.declare(spec)
    assert declared[:2] == (actor.input_ports, actor.output_ports)
    assert actor.rates() in declared.rate_tables
    assert declared.is_source == actor.is_source
    if lib.is_buffer_actor(spec.kind):
        ring = lib.make_passive(spec, 4)
        assert (ring.write_ports, ring.read_ports) == declared[:2]


def test_modal_declaration_lists_every_mode():
    tables = default_library().declare(ActorSpec("A", "avg")).rate_tables
    assert [consume["len"] for consume, _ in tables] == [1, 0, 0]
    assert [produce["out"] for _, produce in tables] == [0, 0, 1]


@pytest.mark.parametrize(
    "spec",
    [
        ActorSpec("S", "src", {"type": "f32"}),
        ActorSpec("F", "fork", {"fanout": 0}),
        ActorSpec("F", "fork", {"fanout": "x"}),
        ActorSpec("IL", "interleave", {"fanout": True}),
        ActorSpec("G", "gain", {"k": "abc"}),
        ActorSpec("G", "gain", {"k": True}),
        ActorSpec("GF", "gain-fork", {"k": "abc"}),
        ActorSpec("A", "snk", {"k": 2, "fanout": 9}),
        ActorSpec("F", "fork", {"k": 2}),
        ActorSpec("GF", "gain-fork", {"fanout": 2, "type": "i64"}),
        ActorSpec("G", "gain", {"k": 2, "fanout": 1}),
        ActorSpec("V", "var-src", {"type": "i64"}),
    ],
    ids=lambda s: f"{s.kind}{s.params}",
)
def test_declaration_and_actor_reject_bad_parameters(spec):
    lib = default_library()
    for build in (lib.declare, lib.make_active):
        with pytest.raises(ModelError, match=f"^{spec.name}: "):
            build(spec)
    if lib.is_buffer_actor(spec.kind):
        with pytest.raises(ModelError):
            lib.make_passive(spec, 4)


@pytest.mark.parametrize("kind", ["gain", "gain-fork"])
def test_non_numeric_gain_is_rejected_before_running(kind):
    b = AppGraphBuilder().actor("S", "src").actor("G", kind, k="abc").actor("K", "snk")
    out = "out" if kind == "gain" else "out0"
    g = b.edge("S.out", "G.in", capacity=2).edge(f"G.{out}", "K.in", capacity=2).build()
    lib = default_library()
    with pytest.raises(ModelError, match="gain k 'abc'"):
        instantiate(derive_direct_pafg(g, lib), lib, {"S": [1.0]})
    GainActor.check("G", 2)  # an int gain is a number too
    with pytest.raises(ModelError):
        GainActor("G", k=None)


def counting_library(counts):
    """The default kinds of a fork cascade, each counting its declaration
    checks by actor name."""
    base, lib = default_library(), ActorLibrary()
    for kind in ("src", "fork", "gain", "acc", "snk"):
        e = base.entry(kind)

        def declare(spec, declare=e.declare):
            counts[spec.name] += 1
            return declare(spec)

        lib.register(kind, e.active_factory, e.passive_factory, declare)
    return lib


def test_each_spec_is_declared_once_per_library():
    cascade = ForkCascadeConfig(window_size=4, num_forks=3)
    graph, data = build_fork_cascade(cascade), fork_cascade_source_data(cascade)
    text = serialize_pafg(derive_direct_pafg(graph, default_library()))
    once = Counter(dict.fromkeys(graph.actors, 1))
    counts = Counter()
    lib = counting_library(counts)
    z = parse_pafg(text, lib)
    optimized, log = passivize_fixpoint(z, lib)
    instantiate(optimized, lib, data)
    assert len(log) == 3 and counts == once
    # the same specs, read by a second library: checked afresh, once each
    counts = Counter()
    lib = counting_library(counts)
    optimized, _ = passivize_fixpoint(z, lib)
    validate_coordinated(optimized, lib)
    instantiate(optimized, lib, data)
    assert counts == once


def test_declaration_defaults_to_reading_a_new_actor():
    lib = ActorLibrary()
    lib.register("ref-mag", default_library().entry("ref-mag").active_factory)
    declared = lib.declare(ActorSpec("R", "ref-mag"))
    assert declared == Declaration(("in",), ("out",), (({"in": 2}, {"out": 1}),))
