import itertools
import random
import struct

import pytest

from graphgen import CORPUS, build_random_app_graph, corpus
from kahn_reference import COMPLETE, kahn_streams, kahn_verdicts
from pafg.apps import (
    EvmConfig,
    ForkCascadeConfig,
    Lcg,
    build_evm_graph,
    build_fork_cascade,
    evm_oracle_per_window,
    evm_production_counts,
    evm_source_data,
    fork_cascade_source_data,
    generate_evm_inputs,
)
from pafg.actors import SinkActor, default_library
from pafg.dataflow import ActorLibrary, AppGraphBuilder, ApplicationGraph, CfdfActor
from pafg.errors import (
    ContractViolationError,
    DeadlockError,
    IrError,
    ModelError,
    RuntimeExecutionError,
    UnboundIoError,
)
from pafg.ir import PSSV, Block, Pafg
from pafg.runtime import compare_streams, data_order, instantiate
from pafg.transform import (
    compute_bmr,
    derive_direct_pafg,
    estimate_copy_count,
    passivize_fixpoint,
)
from topologies import fork_with_ports, gain_fork_cluster_graph, unchecked_direct_pafg


@pytest.fixture(scope="module")
def lib():
    return default_library()


def gain_chain():
    return (
        AppGraphBuilder()
        .actor("SRC", "src")
        .actor("G", "gain", k=2.0)
        .actor("SNK", "snk")
        .edge("SRC.out", "G.in", capacity=4)
        .edge("G.out", "SNK.in", capacity=4)
        .build()
    )


def test_chain_run(lib):
    z = derive_direct_pafg(gain_chain(), lib)
    inst = instantiate(z, lib, {"SRC": [1.0, 2.0, 3.0]})
    stats = inst.run(sink_token_target=3)
    assert inst.sink_streams() == {"SNK": [2.0, 4.0, 6.0]}
    assert stats.sink_tokens == 3
    assert stats.token_stores == 6  # three stores by SRC, three by G
    assert stats.bmr_bytes == compute_bmr(z).total_bytes


def test_run_to_quiescence(lib):
    z = derive_direct_pafg(gain_chain(), lib)
    inst = instantiate(z, lib, {"SRC": [1.0, 2.0]})
    stats = inst.run()
    assert inst.sink_streams() == {"SNK": [2.0, 4.0]}
    assert stats.sink_tokens == 2


def test_iteration_limit(lib):
    z = derive_direct_pafg(gain_chain(), lib)
    inst = instantiate(z, lib, {"SRC": [1.0, 2.0, 3.0, 4.0]})
    inst.run(max_iterations=1, order=sorted(inst.actors))
    # in name order (G, SNK, SRC) the first sweep only fills G's input
    assert inst.sink_streams()["SNK"] in ([], [2.0])


def test_deadlock_reports_populations(lib):
    z = derive_direct_pafg(gain_chain(), lib)
    inst = instantiate(z, lib, {"SRC": [1.0]})
    with pytest.raises(DeadlockError) as err:
        inst.run(sink_token_target=5)
    assert "SRC.out->G.in" in err.value.populations
    assert err.value.blocked == {
        "G": "G.in needs 1, has 0",
        "SNK": "SNK.in needs 1, has 0",
        "SRC": "SRC has no data left",
    }
    assert "SNK.in needs 1, has 0" in str(err.value)


def test_deadlock_names_missing_output_space(lib):
    # R waits for a token on "r" that never comes, so the "e" side fills up
    g = (
        AppGraphBuilder()
        .actor("S1", "src")
        .actor("S2", "src")
        .actor("G", "gain", k=2.0)
        .actor("R", "rms-ratio")
        .actor("SNK", "snk")
        .edge("S1.out", "G.in", capacity=2)
        .edge("G.out", "R.e", capacity=2)
        .edge("S2.out", "R.r", capacity=2)
        .edge("R.out", "SNK.in", capacity=2)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    inst = instantiate(z, lib, {"S1": [1.0] * 6, "S2": []})
    with pytest.raises(DeadlockError) as err:
        inst.run(sink_token_target=1)
    assert err.value.blocked == {
        "G": "G.out needs space for 1, has 0",
        "R": "R.r needs 1, has 0",
        "S1": "S1.out needs space for 1, has 0",
        "S2": "S2 has no data left",
        "SNK": "SNK.in needs 1, has 0",
    }


class Stalled(CfdfActor):
    """A gain-like actor whose state never lets it fire."""

    kind = "stalled"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def ready(self):
        return 0


def test_deadlock_names_a_block_that_is_not_ready(lib):
    custom = ActorLibrary()
    for kind in ("src", "snk"):
        custom.register(kind, lib.entry(kind).active_factory)
    custom.register("stalled", lambda s: Stalled(s.name))
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "stalled")
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=4)
        .edge("B.out", "C.in", capacity=4)
        .build()
    )
    inst = instantiate(derive_direct_pafg(g, custom), custom, {"A": [1.0]})
    with pytest.raises(DeadlockError) as err:
        inst.run(sink_token_target=1)
    assert err.value.blocked == {
        "A": "A has no data left",
        "B": "B is not ready",
        "C": "C.in needs 1, has 0",
    }


def test_conservation(lib):
    g = gain_fork_cluster_graph(capacity=8)
    # G is an interface block with no feeding edge; give it a source
    g = (
        AppGraphBuilder()
        .actor("SRC", "src")
        .actor("G", "gain", k=2.0)
        .actor("F", "fork", fanout=2)
        .actor("C1", "acc")
        .actor("C2", "snk")
        .edge("SRC.out", "G.in", capacity=8)
        .edge("G.out", "F.in", capacity=8)
        .edge("F.out0", "C1.in", capacity=8)
        .edge("F.out1", "C2.in", capacity=8)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    inst = instantiate(z, lib, {"SRC": [1.0, 2.0, 3.0]})
    inst.run()
    for kernel in inst.kernels.values():
        for port in kernel.read_ports:
            i = kernel.read_index(port)
            assert kernel.wptr == kernel.rptr[i] + kernel.population(i)


def test_schedule_permutation_invariance(lib):
    g = gain_chain()
    z = derive_direct_pafg(g, lib)
    data = {"SRC": [1.0, 2.0, 3.0, 4.0]}
    baseline = instantiate(z, lib, data)
    baseline.run()
    for order in (["SNK", "G", "SRC"], ["G", "SRC", "SNK"]):
        inst = instantiate(z, lib, data)
        inst.run(order=order)
        equal, div = compare_streams(baseline.sink_streams(), inst.sink_streams())
        assert equal, div


def test_exhaustive_schedule_enumeration(lib):
    # a four-block graph is small enough to try every sweep order
    from itertools import permutations

    g = (
        AppGraphBuilder()
        .actor("SRC", "src")
        .actor("F", "fork", fanout=2)
        .actor("A1", "snk")
        .actor("A2", "snk")
        .edge("SRC.out", "F.in", capacity=4)
        .edge("F.out0", "A1.in", capacity=4)
        .edge("F.out1", "A2.in", capacity=4)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    data = {"SRC": [1.0, 2.0, 3.0]}
    results = []
    for order in permutations(["SRC", "F", "A1", "A2"]):
        inst = instantiate(z, lib, data)
        inst.run(order=list(order))
        results.append(inst.sink_streams())
    assert all(r == results[0] for r in results)
    assert results[0] == {"A1": [1.0, 2.0, 3.0], "A2": [1.0, 2.0, 3.0]}


def test_iteration_bound_before_target(lib):
    z = derive_direct_pafg(gain_chain(), lib)
    inst = instantiate(z, lib, {"SRC": [1.0, 2.0, 3.0]})
    # in name order (G, SNK, SRC) the first sweep moves all three tokens
    # into G's input and the second drains them to the sink
    with pytest.raises(RuntimeExecutionError):
        inst.run(sink_token_target=3, max_iterations=1, order=sorted(inst.actors))
    inst = instantiate(z, lib, {"SRC": [1.0, 2.0, 3.0]})
    assert inst.run(
        sink_token_target=3, max_iterations=2, order=sorted(inst.actors)
    ).sink_tokens == 3


def test_sink_target_stops_exactly(lib):
    # the source's whole burst fits in G's input, but the sink stops at
    # the target and a later run delivers the rest in order
    g = (
        AppGraphBuilder()
        .actor("SRC", "src")
        .actor("G", "gain", k=1.0)
        .actor("SNK", "snk")
        .edge("SRC.out", "G.in", capacity=8)
        .edge("G.out", "SNK.in", capacity=8)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    data = [float(i) for i in range(10)]
    inst = instantiate(z, lib, {"SRC": data})
    assert inst.run(sink_token_target=3).sink_tokens == 3
    assert inst.sink_streams() == {"SNK": data[:3]}
    assert inst.run().sink_tokens == 7
    assert inst.sink_streams() == {"SNK": data}


def test_evm_batched_sweeps_are_order_invariant(lib):
    # two-writer interleave rings and the multi-mode var-src and avg
    # actors, direct and passivized
    cfg = generate_evm_inputs(seed=3, max_length=32, num_windows=3)
    counts = evm_production_counts(cfg)
    direct = derive_direct_pafg(build_evm_graph(cfg), lib)
    optimized, _ = passivize_fixpoint(direct, lib)
    rng = random.Random(32)
    for z in (direct, optimized):
        baseline = instantiate(z, lib, evm_source_data(cfg))
        baseline.run()
        expected_stores = estimate_copy_count(z, counts)
        for _ in range(5):
            order = sorted(baseline.actors)
            rng.shuffle(order)
            inst = instantiate(z, lib, evm_source_data(cfg))
            stats = inst.run(order=order)
            assert inst.sink_streams() == baseline.sink_streams(), order
            assert stats.token_stores == expected_stores, order


def test_evm_interleave_ring_fills_a_window_per_sweep(lib):
    # each interleave writer fills its half of a 64-sample window in one
    # visit, so the passivized graph needs no more sweeps than the direct one
    rng = Lcg(11)
    cfg = EvmConfig([64], *([rng.next_sample() for _ in range(64)] for _ in range(4)))
    direct = derive_direct_pafg(build_evm_graph(cfg), lib)
    optimized, _ = passivize_fixpoint(direct, lib)
    for z in (direct, optimized):
        inst = instantiate(z, lib, evm_source_data(cfg))
        assert inst.run(sink_token_target=1, max_iterations=4).sink_tokens == 1
        assert inst.sink_streams() == {"SNK": evm_oracle_per_window(cfg)}


def test_order_must_be_permutation(lib):
    z = derive_direct_pafg(gain_chain(), lib)
    inst = instantiate(z, lib, {"SRC": [1.0]})
    with pytest.raises(RuntimeExecutionError):
        inst.run(order=["SRC", "G"])
    # every block is there, but one is repeated
    z = derive_direct_pafg(build_fork_cascade(ForkCascadeConfig(8, num_forks=2)), lib)
    inst = instantiate(z, lib, {"SRC": [1.0] * 8})
    with pytest.raises(RuntimeExecutionError, match="permutation"):
        inst.run(order=inst.order + [inst.order[0]] * 3)
    assert inst.sink_streams() == {"SNK": []}


def both_forms(g, lib):
    direct = derive_direct_pafg(g, lib)
    return direct, passivize_fixpoint(direct, lib)[0]


def test_default_order_is_data_order(lib):
    # forks before the gains they feed, the sink before the side branches
    direct, optimized = both_forms(build_fork_cascade(ForkCascadeConfig(8, num_forks=2)), lib)
    data = {"SRC": [1.0] * 8}
    assert instantiate(direct, lib, data).order == [
        "SRC", "F1", "G1", "F2", "SNK", "ACC2_1", "ACC1_1"
    ]
    # passive forks drop out; the order of the rest is kept
    assert instantiate(optimized, lib, data).order == ["SRC", "G1", "SNK", "ACC2_1", "ACC1_1"]


def test_data_order_crosses_a_deep_cascade_in_one_sweep(lib):
    cfg = ForkCascadeConfig(64, num_forks=50)
    data = fork_cascade_source_data(cfg)
    for z in both_forms(build_fork_cascade(cfg), lib):
        inst = instantiate(z, lib, data)
        assert inst.run(sink_token_target=64, max_iterations=1).sink_tokens == 64
        assert inst.sink_streams() == {"SNK": data["SRC"]}
        # in name order F10 precedes G1, so a sweep moves data one stage
        inst = instantiate(z, lib, data)
        with pytest.raises(RuntimeExecutionError):
            inst.run(sink_token_target=64, max_iterations=1, order=sorted(inst.actors))


def order_cases():
    """Graphs with their source data: the benchmark's shapes at small
    sizes, and random graphs."""
    rng = Lcg(5)
    lengths = [3, 17, 40, 64]
    evm = EvmConfig(lengths, *([rng.next_sample() for _ in range(sum(lengths))] for _ in range(4)))
    yield build_evm_graph(evm), evm_source_data(evm)
    for cfg in (ForkCascadeConfig(64, num_forks=6), ForkCascadeConfig(8, num_forks=12)):
        yield build_fork_cascade(cfg), fork_cascade_source_data(cfg, seed=5)
    rng = random.Random(11)
    for _ in range(8):
        yield build_random_app_graph(rng, max_actors=14)


def test_sweep_order_changes_no_complete_run(lib):
    # data order (the default), name order and reversed name order
    for g, data in order_cases():
        for z in both_forms(g, lib):
            names = sorted(instantiate(z, lib, data).actors)
            runs = []
            for order in (None, names, names[::-1]):
                inst = instantiate(z, lib, data)
                stats = inst.run(order=order)
                runs.append((inst.sink_streams(), stats.token_stores))
            assert runs[0][0] and runs[1] == runs[0] == runs[2], sorted(g.actors)


def quiescent_run(z, lib, data):
    """Sink streams and token stores of one run to quiescence."""
    inst = instantiate(z, lib, data)
    stats = inst.run()
    return inst.sink_streams(), stats.token_stores


def test_wrappers_installed_after_instantiate_are_called(lib):
    # the station table holds the live actors and kernels, not their
    # methods, so per-object wrappers installed later take part in the run
    for g, data in order_cases():
        for z in both_forms(g, lib):
            inst = instantiate(z, lib, data)
            calls = {}

            def wrap(obj, method):
                inner = getattr(obj, method)

                def counted(*args):
                    calls[method] = calls.get(method, 0) + 1
                    return inner(*args)

                setattr(obj, method, counted)

            for actor in inst.actors.values():
                wrap(actor, "invoke")
            for kernel in inst.kernels.values():
                for method in ("read", "write", "population", "writable"):
                    wrap(kernel, method)
            stats = inst.run()
            assert set(calls) == {"invoke", "read", "write", "population", "writable"}, calls
            assert (inst.sink_streams(), stats.token_stores) == quiescent_run(z, lib, data)


def test_run_resumes_where_the_last_one_stopped(lib):
    for g, data in order_cases():
        for z in both_forms(g, lib):
            expected = quiescent_run(z, lib, data)
            total = sum(len(stream) for stream in expected[0].values())
            inst = instantiate(z, lib, data)
            first = inst.run(sink_token_target=total // 2)
            assert first.sink_tokens == total // 2
            second = inst.run()
            assert first.sink_tokens + second.sink_tokens == total
            streams = inst.sink_streams()
            assert (streams, first.token_stores + second.token_stores) == expected


def test_runs_in_different_orders_share_one_instance(lib):
    # the rows carry no run state: a second run in another order carries
    # on from the first
    for g, data in order_cases():
        for z in both_forms(g, lib):
            expected = quiescent_run(z, lib, data)
            inst = instantiate(z, lib, data)
            names = sorted(inst.actors)
            first = inst.run(max_iterations=1, order=names[::-1])
            second = inst.run(order=names)
            streams = inst.sink_streams()
            assert (streams, first.token_stores + second.token_stores) == expected


def test_data_order_of_a_cycle_is_deterministic(lib):
    # IL feeds G, which feeds IL back
    g = (
        AppGraphBuilder()
        .actor("SRC", "src")
        .actor("IL", "interleave", fanout=2)
        .actor("G", "gain", k=1.0)
        .actor("SNK", "snk")
        .edge("SRC.out", "IL.re", capacity=2)
        .edge("G.out", "IL.im", capacity=2)
        .edge("IL.out0", "G.in", capacity=2)
        .edge("IL.out1", "SNK.in", capacity=2)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    assert instantiate(z, lib, {"SRC": [1.0]}).order == ["SRC", "G", "IL", "SNK"]
    rng = random.Random(3)
    actors, edges = list(g.actors.items()), list(g.edges.items())
    for _ in range(10):
        rng.shuffle(actors)
        rng.shuffle(edges)
        shuffled = ApplicationGraph(dict(actors), dict(edges))
        assert data_order(shuffled, {"G", "IL", "SNK", "SRC"}) == ["SRC", "G", "IL", "SNK"]
        assert data_order(shuffled, {"IL", "SRC"}) == ["SRC", "IL"]


def reference_data_order(graph, blocks):
    """data_order as first written, the reference: every actor's successors
    sorted into one table before the search starts."""
    succ = {v: sorted([e.snk for e in es], reverse=True) for v, es in graph.outs.items()}
    seen, finished = set(), []
    stack = sorted(graph.actors, reverse=True)
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):
            finished.append(v[0])
        elif v not in seen:
            seen.add(v)
            stack.append((v,))
            stack += succ.get(v, ())
    return [v for v in reversed(finished) if v in blocks]


def test_data_order_matches_its_reference(lib):
    # successors sorted as the search expands an actor, against one table
    # sorted first: graphgen's corpus and EVM, on the application graph
    # with each form's active blocks
    evm = build_evm_graph(generate_evm_inputs(seed=3, max_length=8, num_windows=2))
    for g in itertools.chain(corpus(), [evm]):
        direct = derive_direct_pafg(g, lib)
        for z in (direct, passivize_fixpoint(direct, lib)[0]):
            active = {n for n, c in z.coordination.items() if c != PSSV}
            assert data_order(g, active) == reference_data_order(g, active)


def test_one_source_list_serves_both_forms(lib):
    # a bound list is read, not copied, and no run changes it
    samples = [float(i) for i in range(40)]
    data = {"SRC": samples}
    streams = []
    for z in both_forms(build_fork_cascade(ForkCascadeConfig(40, num_forks=3)), lib):
        inst = instantiate(z, lib, data)
        inst.run()
        streams.append(inst.sink_streams())
    assert streams[0] == streams[1] == {"SNK": samples}
    assert samples == [float(i) for i in range(40)]


def test_direct_vs_optimized_streams(lib):
    rng = random.Random(5)
    for _ in range(10):
        g, data = build_random_app_graph(rng, max_actors=12)
        assert kahn_verdicts(g, both_forms(g, lib), lib, data) == [COMPLETE] * 2, sorted(g.actors)


# (seed, graphs, max_actors, complete runs per form at least, modal kinds);
# the modal set's floor is below its measured 279 direct and 283 passivized
# the least number of complete runs in each of graphgen's CORPUS seed sets
KAHN_FLOORS = {5: 180, 202: 55, 11: 270, 99: 275}
KAHN_SEED_SETS = [
    pytest.param(seed, graphs, max_actors, floor, modal,
                 id=f"{seed}-{graphs}-{max_actors}-{floor}" + ("-modal" if modal else ""))
    for seed, graphs, max_actors, modal in CORPUS
    for floor in [KAHN_FLOORS[seed]]
]


@pytest.mark.parametrize("seed, graphs, max_actors, floor, modal", KAHN_SEED_SETS)
def test_every_run_of_a_random_graph_is_a_prefix_of_its_kahn_reference(
    lib, seed, graphs, max_actors, floor, modal
):
    # the reference shares only the actors with the engine; a run may stop
    # short (a fork's readers or an interleave's inputs at different
    # points), but never delivers a token the reference does not
    rng = random.Random(seed)
    complete = {"direct": 0, "passivized": 0}
    for _ in range(graphs):
        g, data = build_random_app_graph(rng, max_actors=max_actors, modal=modal)
        reference = kahn_streams(g, lib, data)
        for form, z in zip(complete, both_forms(g, lib)):
            inst = instantiate(z, lib, data)
            inst.run()
            streams = inst.sink_streams()
            prefixes = {sink: reference[sink][:len(s)] for sink, s in streams.items()}
            equal, divergence = compare_streams(prefixes, streams)
            assert equal, (form, sorted(g.actors), divergence)  # a longer stream too
            complete[form] += streams == reference
    # most runs are complete, so the prefix check is not met by empty runs
    assert min(complete.values()) >= floor, complete


def variable_window_graph(length_capacity=2, data_capacity=8):
    # the data channel runs through a stage actor: two parallel edges
    # between the same actor pair would need a multigraph
    return (
        AppGraphBuilder()
        .actor("VS", "var-src")
        .actor("ID", "gain", k=1.0)
        .actor("AVG", "avg")
        .actor("SNK", "snk")
        .edge("VS.len", "AVG.len", capacity=length_capacity, token_type="i64")
        .edge("VS.out", "ID.in", capacity=data_capacity)
        .edge("ID.out", "AVG.in", capacity=8)
        .edge("AVG.out", "SNK.in", capacity=2)
        .build()
    )


def test_variable_window_graph(lib):
    z = derive_direct_pafg(variable_window_graph(), lib)
    inst = instantiate(z, lib, {"VS": [2, 1.0, 3.0, 3, 3.0, 4.0, 5.0]})
    inst.run(sink_token_target=2)
    assert inst.sink_streams() == {"SNK": [2.0, 4.0]}


def test_rate_change_recomputes_batch(lib):
    # VS's length port admits four firings, but once it switches to its
    # data mode only one sample fits: the batch must be recomputed, not
    # counted down
    z = derive_direct_pafg(variable_window_graph(length_capacity=4, data_capacity=1), lib)
    inst = instantiate(z, lib, {"VS": [2, 1.0, 3.0, 3, 3.0, 4.0, 5.0]})
    inst.run(sink_token_target=2, order=["VS", "ID", "AVG", "SNK"])
    assert inst.sink_streams() == {"SNK": [2.0, 4.0]}


def record_calls(actor, calls):
    """Wrap actor.invoke to log (mode, k, window samples left) per call."""
    invoke = actor.invoke

    def recorded(inputs, k=1):
        calls.append((actor.mode, k, actor._remaining))
        return invoke(inputs, k)

    actor.invoke = recorded


def test_avg_batch_stops_before_the_last_sample(lib):
    # every buffer holds a whole window, so only ready() bounds AVG's batch
    z = derive_direct_pafg(variable_window_graph(length_capacity=4, data_capacity=16), lib)
    inst = instantiate(z, lib, {"VS": [5, 1.0, 2.0, 3.0, 4.0, 5.0, 2, 6.0, 8.0, 1, 9.0]})
    calls = []
    record_calls(inst.actors["AVG"], calls)
    inst.run()
    assert inst.sink_streams() == {"SNK": [3.0, 7.0, 9.0]}
    assert calls == [
        ("read-length", 1, 0), ("accumulate", 4, 5), ("finish", 1, 1),
        ("read-length", 1, 0), ("accumulate", 1, 2), ("finish", 1, 1),
        ("read-length", 1, 0), ("finish", 1, 1),
    ]


def test_var_source_batch_stops_at_the_window_end(lib):
    z = derive_direct_pafg(variable_window_graph(length_capacity=4, data_capacity=16), lib)
    inst = instantiate(z, lib, {"VS": [2, 1.0, 3.0, 3, 3.0, 4.0, 5.0, 1, 7.0]})
    calls = []
    record_calls(inst.actors["VS"], calls)
    # one sweep: the whole stream fits VS's buffers, window by window
    inst.run(max_iterations=1, order=["VS", "ID", "AVG", "SNK"])
    assert calls == [
        ("emit-length", 1, 0), ("emit-data", 2, 2),
        ("emit-length", 1, 0), ("emit-data", 3, 3),
        ("emit-length", 1, 0), ("emit-data", 1, 1),
    ]
    inst.run()
    assert inst.sink_streams() == {"SNK": [2.0, 4.0, 7.0]}


class ShortBatch(CfdfActor):
    """A gain-like actor whose batched form drops the first token."""

    kind = "short"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def invoke(self, inputs, k=1):
        return {"out": inputs["in"][1:] if k > 1 else inputs["in"]}


def test_batched_contract_violation_detected(lib):
    custom = ActorLibrary()
    for kind in ("src", "snk"):
        custom.register(kind, lib.entry(kind).active_factory)
    custom.register("short", lambda s: ShortBatch(s.name))
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "short")
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=4)
        .edge("B.out", "C.in", capacity=4)
        .build()
    )
    z = derive_direct_pafg(g, custom)
    inst = instantiate(z, custom, {"A": [1.0]})
    assert inst.run(sink_token_target=1).sink_tokens == 1
    inst = instantiate(z, custom, {"A": [1.0, 2.0, 3.0]})
    with pytest.raises(ContractViolationError, match=r"B\.out: produced 2 tokens in 3 firing"):
        inst.run(sink_token_target=1, order=["A", "B", "C"])
    for ring in (inst.kernels["A.out->B.in"], inst.kernels["B.out->C.in"]):
        assert ring.population(ring.read_index("out")) == 0


class OverProducer(CfdfActor):
    kind = "liar"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def rates(self):
        return {"in": 1}, {"out": 1}

    def invoke(self, inputs, k=1):
        return {"out": [1.0, 2.0]}


def test_contract_violation_detected(lib):
    import pafg.dataflow as dataflow

    custom = dataflow.ActorLibrary()
    custom.register("src", lib.entry("src").active_factory)
    custom.register("snk", lib.entry("snk").active_factory)
    custom.register("liar", lambda s: OverProducer(s.name))
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "liar")
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=4)
        .edge("B.out", "C.in", capacity=4)
        .build()
    )
    z = derive_direct_pafg(g, custom)
    inst = instantiate(z, custom, {"A": [1.0]})
    with pytest.raises(ContractViolationError):
        inst.run(sink_token_target=1)
    # fed three tokens, B fires one batch of three, which reads all three
    # and is stopped by the same check
    inst = instantiate(z, custom, {"A": [1.0, 2.0, 3.0]})
    with pytest.raises(ContractViolationError, match=r"B\.out: produced 2 tokens in 3 firing"):
        inst.run(sink_token_target=1, order=["A", "B", "C"])
    ring = inst.kernels["A.out->B.in"]
    assert ring.population(ring.read_index("out")) == 0


class Alternator(CfdfActor):
    """Reads one token, then two, then one again, and emits what it read
    summed: its rate table changes after every firing, which it states by
    overriding rates(), not by subclassing ModalActor."""

    kind = "alt"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = {1: ({"in": 1}, {"out": 1}), 2: ({"in": 2}, {"out": 1})}

    def __init__(self, name):
        super().__init__(name)
        self.reads = 1

    def rates(self):
        return self._RATES[self.reads]

    def ready(self):
        return 1

    def invoke(self, inputs, k=1):
        self.reads = 3 - self.reads
        return {"out": [sum(inputs["in"])]}


def test_a_kind_whose_rates_change_without_modal_actor_matches_the_reference():
    # the engine asks rates() again after a firing of any class that
    # overrides it; a stale table would read one token where two are due
    custom = default_library()
    custom.register("alt", lambda s: Alternator(s.name))
    g = (
        AppGraphBuilder()
        .actor("S", "src")
        .actor("F", "fork", fanout=2)
        .actor("A", "alt")
        .actor("B", "snk")
        .actor("C", "snk")
        .edge("S.out", "F.in", capacity=4)
        .edge("F.out0", "A.in", capacity=4)
        .edge("F.out1", "C.in", capacity=4)
        .edge("A.out", "B.in", capacity=4)
        .build()
    )
    data = {"S": [float(x) for x in range(1, 25)]}
    reference = kahn_streams(g, custom, data)
    assert reference["B"][:4] == [1.0, 5.0, 4.0, 11.0] and len(reference["B"]) == 16
    direct, passivized = both_forms(g, custom)
    assert passivized.coordination["F"] == PSSV
    for z in (direct, passivized):
        inst = instantiate(z, custom, data)
        inst.run()
        assert compare_streams(inst.sink_streams(), reference) == (True, None)


class Tap(SinkActor):
    kind = "tap"


def test_a_sink_is_known_by_its_contract_not_its_kind():
    # a custom sink kind counts toward the target and shows in the streams
    custom = default_library()
    custom.register("tap", lambda s: Tap(s.name))
    g = (
        AppGraphBuilder()
        .actor("S", "src")
        .actor("T", "tap")
        .edge("S.out", "T.in", capacity=4)
        .build()
    )
    inst = instantiate(derive_direct_pafg(g, custom), custom, {"S": [1.0, 2.0]})
    assert inst.run(sink_token_target=2).sink_tokens == 2
    assert inst.sink_streams() == {"T": [1.0, 2.0]}


def test_instantiate_requires_source_data(lib):
    z = derive_direct_pafg(gain_chain(), lib)
    with pytest.raises(UnboundIoError):
        instantiate(z, lib, {})
    with pytest.raises(UnboundIoError):
        instantiate(z, lib, {"SRC": [1.0], "G": [2.0]})


def test_instantiate_rejects_passive_without_impl(lib):
    from pafg.dataflow import ActorLibrary
    from pafg.transform import passivize
    from topologies import chain_graph

    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    z2, _ = passivize(z, lib, "B")
    # a library in which fork has no passive form cannot execute z2
    crippled = ActorLibrary()
    for kind in ("src", "snk", "fork"):
        crippled.register(kind, lib.entry(kind).active_factory)
    with pytest.raises(IrError):
        instantiate(z2, crippled, {"A": [1.0]})


@pytest.mark.parametrize("ports, named", [({"in_port": "bogus"}, r"F\.bogus"),
                                          ({"out_port": "out7"}, r"F\.out7")])
@pytest.mark.parametrize("optimized", [False, True])
def test_instantiate_rejects_undeclared_ports(lib, ports, named, optimized):
    # derive_direct_pafg refuses the graph, so its direct PAFG is built by
    # hand; check_ports refuses it at F's rewrite, or at instantiate
    z = unchecked_direct_pafg(fork_with_ports(**ports))
    with pytest.raises(ModelError, match=f"^{named} is not a declared port of F$"):
        if optimized:
            passivize_fixpoint(z, lib)
        else:
            instantiate(z, lib, {"S": [1.0, 2.0]})


def fork_with_an_unbound_output():
    """S -> F(fork, fanout 3) -> A, B: F.out2 has no edge."""
    return (
        AppGraphBuilder()
        .actor("S", "src")
        .actor("F", "fork", fanout=3)
        .actor("A", "snk")
        .actor("B", "snk")
        .edge("S.out", "F.in", capacity=4)
        .edge("F.out0", "A.in", capacity=4)
        .edge("F.out1", "B.in", capacity=4)
        .build()
    )


def interleave_with_an_unbound_input():
    """R -> IL.re, IL.out0 -> K: IL.im has no edge."""
    return (
        AppGraphBuilder()
        .actor("R", "src")
        .actor("IL", "interleave")
        .actor("K", "snk")
        .edge("R.out", "IL.re", capacity=4)
        .edge("IL.out0", "K.in", capacity=4)
        .build()
    )


@pytest.mark.parametrize(
    "build, data, message",
    [
        (fork_with_an_unbound_output, {"S": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
         "output port F.out2 is unbound"),
        (interleave_with_an_unbound_input, {"R": [1.0, 2.0]}, "input port IL.im is unbound"),
    ],
)
@pytest.mark.parametrize("optimized", [False, True])
def test_instantiate_rejects_unbound_ports(lib, build, data, message, optimized):
    # active, the buffer is an actor; passivized, it is a ring whose
    # unbound port would keep its other readers or writers waiting forever
    z = derive_direct_pafg(build(), lib)
    if optimized:
        z, log = passivize_fixpoint(z, lib)
        assert len(log) == 1 and z.coordination[log[0].block] == PSSV
    with pytest.raises(RuntimeExecutionError, match=f"^{message}$"):
        instantiate(z, lib, data)


def test_instantiate_rejects_a_non_alternating_pafg(lib):
    g = gain_chain()
    blocks = {name: Block(spec) for name, spec in g.actors.items()}  # no buffers
    z = Pafg(blocks, g)
    with pytest.raises(RuntimeExecutionError, match="only alternating PAFGs are executable"):
        instantiate(z, lib, {"SRC": [1.0]})


class StrayEmitter(CfdfActor):
    """A gain-like actor that also emits on a port it does not declare."""

    kind = "stray"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def invoke(self, inputs, k=1):
        return {"out": inputs["in"], "spare": inputs["in"]}


def test_tokens_on_an_undeclared_port_are_a_contract_violation(lib):
    custom = ActorLibrary()
    for kind in ("src", "snk"):
        custom.register(kind, lib.entry(kind).active_factory)
    custom.register("stray", lambda s: StrayEmitter(s.name))
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "stray")
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=4)
        .edge("B.out", "C.in", capacity=4)
        .build()
    )
    inst = instantiate(derive_direct_pafg(g, custom), custom, {"A": [1.0]})
    with pytest.raises(ContractViolationError, match=r"^B: .* unbound port\(s\) \['spare'\]$"):
        inst.run(sink_token_target=1)


def test_compare_streams_divergence():
    equal, div = compare_streams({"S": [1.0, 2.0]}, {"S": [1.0, 2.0]})
    assert equal and div is None
    equal, div = compare_streams({"S": [1.0, 2.0]}, {"S": [1.0, 3.0]})
    assert not equal and (div.sink, div.index) == ("S", 1)
    equal, div = compare_streams({"S": [1.0]}, {"S": [1.0, 2.0]})
    assert not equal and div.index == 1 and div.left is None
    with pytest.raises(RuntimeExecutionError):
        compare_streams({"S": []}, {"T": []})


NAN = float("nan")


class _Float(float):
    """A float subclass, which marshal does not write (like numpy.float64)."""


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@pytest.mark.parametrize("left, right, equal", [
    (0.0, -0.0, False),
    (1, 1.0, False),
    (True, 1, False),
    (NAN, NAN, True),
    (NAN, _from_bits(0x7FF8000000000000), True),
    (_from_bits(0x7FF8000000000000), _from_bits(0x7FF8000000000001), False),
    (_Float(0.0), _Float(-0.0), False),
    (_Float(1.0), 1.0, False),
    (_Float(1.0), _Float(1.0), True),
], ids=["signed-zero", "int-float", "bool-int", "same-nan", "nan-same-bits", "nan-other-bits",
        "subclass-signed-zero", "subclass-float", "subclass-same"])
def test_compare_streams_is_bit_exact(left, right, equal):
    """Tokens match only with the same type and the same value bits."""
    a, b = {"S": [2.0, left, 3.0]}, {"S": [2.0, right, 3.0]}
    if equal:
        assert compare_streams(a, b) == (True, None)
    else:
        ok, div = compare_streams(a, b)
        assert not ok and (div.index, div.left, div.right) == (1, left, right)
        assert type(div.left) is type(left) and type(div.right) is type(right)


@pytest.mark.parametrize("index", [0, 4095, 4096, 9999])
def test_compare_streams_finds_the_first_divergence_in_a_long_stream(index):
    left = [float(i) for i in range(10_000)]
    right = [float(i) for i in range(10_000)]
    assert compare_streams({"S": left}, {"S": right}) == (True, None)
    right[index] = -0.0 if index == 0 else -right[index]
    right[-1] = 0.5
    ok, div = compare_streams({"S": left}, {"S": right})
    assert not ok and (div.index, div.left, div.right) == (index, left[index], right[index])


@pytest.mark.parametrize("length", [4096, 8192, 9999])
def test_compare_streams_long_length_mismatch(length):
    left = [float(i) for i in range(10_000)]
    ok, div = compare_streams({"S": left}, {"S": left[:length]})
    assert not ok and (div.index, div.left, div.right) == (length, left[length], None)


def test_different_parameters_diverge(lib):
    data = {"SRC": [1.0, 2.0]}
    runs = {}
    for k in (2.0, 3.0):
        g = (
            AppGraphBuilder()
            .actor("SRC", "src")
            .actor("G", "gain", k=k)
            .actor("SNK", "snk")
            .edge("SRC.out", "G.in", capacity=4)
            .edge("G.out", "SNK.in", capacity=4)
            .build()
        )
        inst = instantiate(derive_direct_pafg(g, lib), lib, data)
        inst.run()
        runs[k] = inst.sink_streams()
    equal, div = compare_streams(runs[2.0], runs[3.0])
    assert not equal and div.index == 0
