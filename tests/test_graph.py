import itertools
import random

import pytest

from graphgen import corpus
from pafg.apps import build_evm_graph, generate_evm_inputs
from pafg.dataflow import AppGraphBuilder
from pafg.errors import (
    DuplicateEdgeError,
    DuplicateVertexError,
    SelfLoopError,
    UnknownVertexError,
)
from pafg.graph import DirectedGraph


def chain(*names):
    return DirectedGraph.of(names, zip(names, names[1:]))


def test_add_vertex_from_empty():
    g = AppGraphBuilder().actor("A", "src").build()
    assert list(g.actors) == ["A"]
    assert not g.edges and not g.ins and not g.outs


def test_add_vertex():
    g = AppGraphBuilder().actor("A", "src").actor("B", "snk").build()
    assert list(g.actors) == ["A", "B"]


def test_add_duplicate_vertex():
    b = AppGraphBuilder().actor("A", "src")
    with pytest.raises(DuplicateVertexError):
        b.actor("A", "snk")


def test_add_edge():
    b = AppGraphBuilder().actor("A", "src").actor("B", "snk").edge("A.out", "B.in", capacity=1)
    g = b.build()
    e = g.edges["A", "B"]
    assert list(g.edges) == [("A", "B")] and g.outs == {"A": [e]} and g.ins == {"B": [e]}
    assert DirectedGraph.of(["A", "B"], [("A", "B")]).edges == {("A", "B")}


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        AppGraphBuilder().actor("A", "gain").edge("A.out", "A.in", capacity=1)
    with pytest.raises(SelfLoopError):
        DirectedGraph.of(["A"], [("A", "A")])


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownVertexError):
        AppGraphBuilder().actor("A", "src").actor("B", "snk").edge("A.out", "C.in", capacity=1)
    with pytest.raises(UnknownVertexError):
        DirectedGraph.of(["A", "B"], [("A", "C")])


def test_first_bad_edge_in_sorted_order_is_named():
    # a frozenset's order follows string hashing; the edge named must not
    with pytest.raises(UnknownVertexError, match=r"unknown vertex 'Y' in edge \('A', 'Y'\)"):
        DirectedGraph.of(["A", "B"], [("B", "Z"), ("A", "Y")])
    with pytest.raises(SelfLoopError, match="self-loop on 'A'"):
        DirectedGraph.of(["A", "B"], [("B", "Z"), ("A", "A")])
    many = [(f"X{i:02d}", "A") for i in range(20)] + [("Y", "Y")]
    with pytest.raises(UnknownVertexError, match=r"in edge \('X00', 'A'\)"):
        DirectedGraph.of(["A", "Y"], many)


def test_duplicate_edge_rejected():
    b = AppGraphBuilder().actor("A", "src").actor("B", "snk").edge("A.out", "B.in", capacity=1)
    with pytest.raises(DuplicateEdgeError):
        b.edge("A.out", "B.in", capacity=1)


def test_pred_succ_on_chain():
    g = chain("A", "B", "C")
    assert g.pred("B") == {"A"}
    assert g.succ("B") == {"C"}


def test_isolated_vertex():
    g = DirectedGraph.of(["A", "B", "C", "D"], [("A", "B"), ("B", "C")])
    assert g.pred("D") == set()
    assert g.succ("D") == set()


def test_fork_topology():
    g = DirectedGraph.of(["A", "B", "C"], [("A", "B"), ("A", "C")])
    assert g.succ("A") == {"B", "C"}
    assert len(g.out_edges("A")) == 2


def test_unknown_vertex_queries():
    g = chain("A", "B")
    with pytest.raises(UnknownVertexError):
        g.pred("Z")


def test_immutability():
    b = AppGraphBuilder().actor("A", "src").actor("B", "snk").edge("A.out", "B.in", capacity=1)
    g = b.build()
    b.actor("C", "snk").edge("B.out", "C.in", capacity=1)
    assert set(g.actors) == {"A", "B"} and list(g.edges) == [("A", "B")]
    assert list(g.outs) == ["A"] and list(g.ins) == ["B"]


def random_graph(rng, n_max=12):
    names = [f"v{i}" for i in range(rng.randint(2, n_max))]
    edges = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.3
    ]
    return DirectedGraph.of(names, edges)


def test_degree_sums_match_edge_count():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng)
        assert sum(len(g.in_edges(v)) for v in g.vertices) == len(g.edges)
        assert sum(len(g.out_edges(v)) for v in g.vertices) == len(g.edges)
        for v in g.vertices:
            assert len(g.in_edges(v)) == len(g.pred(v))
            assert len(g.out_edges(v)) == len(g.succ(v))
            # the index agrees with a scan of every edge
            assert g.in_edges(v) == {e for e in g.edges if e[1] == v}
            assert g.out_edges(v) == {e for e in g.edges if e[0] == v}
            assert g.pred(v) == {src for src, snk in g.edges if snk == v}
            assert g.succ(v) == {snk for src, snk in g.edges if src == v}


def test_application_graph_index_matches_a_scan():
    # the degree sums for application graphs: ins and outs hold the graph's
    # own edge records, in edge-table order, for graphgen's corpus and EVM
    evm = build_evm_graph(generate_evm_inputs(seed=3, max_length=8, num_windows=2))
    for g in itertools.chain(corpus(), [evm]):
        records = list(g.edges.values())
        for index, end in ((g.ins, "snk"), (g.outs, "src")):
            scan = {}
            for e in records:
                scan.setdefault(getattr(e, end), []).append(e)
            assert list(index) == list(scan) and index.keys() <= g.actors.keys()
            for v, es in index.items():
                assert len(es) == len(scan[v]) and all(a is b for a, b in zip(es, scan[v]))
            assert sum(map(len, index.values())) == len(g.edges)
