import itertools
import pickle
import random
from collections import Counter
from dataclasses import fields

import pytest

from graphgen import build_random_app_graph, corpus
from pafg.actors import default_library
from pafg.apps import build_evm_graph, generate_evm_inputs
from pafg.dataflow import ActorSpec, AppGraphBuilder, DataflowEdge
from pafg.errors import DanglingProvenanceError, IrError, ParseError
from pafg.ir import (
    ACTV,
    Block,
    PSSV,
    Pafg,
    _is_interface,
    block_edges,
    check_abc,
    check_association,
    is_alternating,
    validate_coordinated,
)
from pafg.formats import parse_pafg, serialize_pafg
from pafg.transform import derive_direct_pafg, passivize, passivize_fixpoint


@pytest.fixture(scope="module")
def lib():
    return default_library()


def chain_graph():
    return (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "fork", fanout=1)
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=100)
        .edge("B.out0", "C.in", capacity=100)
        .build()
    )


def test_direct_pafg_is_alternating(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    assert is_alternating(z)
    assert check_abc(z)


def test_empty_pafg_is_alternating(lib):
    z = derive_direct_pafg(AppGraphBuilder().build(), lib)
    assert is_alternating(z)
    assert check_abc(z)


def test_active_active_edge_breaks_alternation(lib):
    # without their simple buffers, the actors' blocks connect directly
    g = chain_graph()
    blocks = {name: Block(spec) for name, spec in g.actors.items()}
    z = Pafg(blocks, g)
    assert z.edges == {("A", "B"), ("B", "C")}
    assert z.coordination == dict.fromkeys(blocks, ACTV)  # no block has a capacity
    assert not is_alternating(z)
    assert check_abc(z)  # no passive-passive edge either


def test_adjacent_passive_blocks_fail_abc(lib):
    # the fork made passive while its simple buffers stay: passive-passive
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    blocks = dict(z.blocks, B=Block(g.actor("B"), capacity=100))
    z2 = Pafg(blocks, g)
    assert z2.coordination["B"] == PSSV
    assert ("A.out->B.in", "B") in z2.edges
    assert not check_abc(z2)
    assert not is_alternating(z2)


def test_single_block_pafg_satisfies_abc(lib):
    g = AppGraphBuilder().actor("A", "src").build()
    z = derive_direct_pafg(g, lib)
    assert check_abc(z)


def test_interface_blocks():
    g = chain_graph()
    assert _is_interface(g, "A")  # no inputs
    assert not _is_interface(g, "B")
    assert _is_interface(g, "C")  # no outputs
    assert _is_interface(AppGraphBuilder().actor("A", "src").build(), "A")  # isolated


def block_graph_interface(z, name):
    """The interface rule read off z's block graph, the reference for
    _is_interface: a non-simple block with no block in-edge or none out."""
    return not z.blocks[name].is_simple and not (z.graph.pred(name) and z.graph.succ(name))


def test_interface_rule_matches_the_block_graph(lib):
    # the rule on the application graph's index against the block graph,
    # for every actor of graphgen's corpus and of EVM, in both forms
    seen = Counter()
    evm = build_evm_graph(generate_evm_inputs(seed=3, max_length=8, num_windows=2))
    for g in itertools.chain(corpus(), [evm]):
        direct = derive_direct_pafg(g, lib)
        for z in (direct, passivize_fixpoint(direct, lib)[0]):
            for name in g.actors:
                rule = _is_interface(g, name)
                assert rule == block_graph_interface(z, name), (sorted(g.actors), name)
                seen[rule, z.coordination[name]] += 1
    assert seen[True, ACTV] and seen[False, ACTV] and seen[False, PSSV]
    assert not seen[True, PSSV]  # Pafg refuses a passive interface block


def test_direct_pafg_is_associated(lib):
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    assert check_association(g, z)


def test_association_survives_passivization(lib):
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    z2, _ = passivize(z, lib, "B")
    assert check_association(g, z2)


def test_association_false_for_foreign_edge(lib):
    # g has no edge through the ghost, so a PAFG cannot hold its block
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    ghost = Block(DataflowEdge("X", "out", "Y", "in", 4), capacity=4)
    blocks = dict(z.blocks)
    blocks[ghost.name] = ghost
    with pytest.raises(DanglingProvenanceError, match=r"block 'X\.out->Y\.in': provenance"):
        Pafg(blocks, g)


def test_association_rejects_port_mismatch(lib):
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    p = Block(DataflowEdge("A", "bogus", "B", "in", 100), capacity=100)
    blocks = {n: b for n, b in z.blocks.items() if n != "A.out->B.in"}
    blocks[p.name] = p
    with pytest.raises(DanglingProvenanceError, match=r"block 'A\.bogus->B\.in': provenance"):
        Pafg(blocks, g)


def test_association_requires_injectivity(lib):
    # Two blocks for one actor would share its name, which Pafg rejects.
    g = chain_graph()
    b = Block(g.actor("B"))
    with pytest.raises(IrError):
        Pafg({"b1": b, "b2": b}, g)


def test_association_false_for_foreign_actor_spec(lib):
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    blocks = dict(z.blocks)
    blocks["B"] = Block(ActorSpec("B", "fork", {"fanout": 2}))
    with pytest.raises(DanglingProvenanceError, match="block 'B': provenance"):
        Pafg(blocks, g)
    blocks["Z"] = Block(ActorSpec("Z", "snk"))  # no actor of that name at all
    del blocks["B"]
    with pytest.raises(DanglingProvenanceError, match="block 'Z': provenance"):
        Pafg(blocks, g)


def test_association_false_without_an_actor_block(lib):
    # an isolated actor without a block leaves no connection dangling
    g = AppGraphBuilder().actor("A", "src").actor("D", "snk").build()
    z = derive_direct_pafg(g, lib)
    with pytest.raises(IrError, match="actor 'D' has no block"):
        Pafg({"A": z.blocks["A"]}, g)
    # an actor with an edge but no block is named before its connections
    # are derived
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    gone = {"C", "B.out0->C.in"}
    blocks = {n: b for n, b in z.blocks.items() if n not in gone}
    with pytest.raises(IrError, match="actor 'C' has no block"):
        Pafg(blocks, g)


def test_association_false_for_rerouted_connection(lib):
    # a PAFG's connections are derived, so a rerouted one can only come from
    # another application graph: equal actors, the fork's output rerouted
    g = chain_graph()
    z, _ = passivize(derive_direct_pafg(g, lib), lib, "B")
    assert z.edges == block_edges(z.blocks, g) == {("A", "B"), ("B", "C")}
    rerouted = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "fork", fanout=1)
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=100)
        .edge("B.out0", "A.out", capacity=100)
        .build()
    )
    assert rerouted.actors == g.actors and rerouted != g
    assert not check_association(rerouted, z)
    assert not check_association(g, Pafg(z.blocks, rerouted))


def test_block_name_and_kind_come_from_provenance(lib):
    g = chain_graph()
    actor, simple = Block(g.actor("B")), Block(g.edge("A", "B"))
    assert (actor.name, actor.kind, actor.is_simple) == ("B", "fork", False)
    assert (simple.name, simple.kind, simple.is_simple) == ("A.out->B.in", None, True)
    assert Block(g.actor("B"), 4) == Block(g.actor("B"), 4) != Block(g.actor("B"), 5)
    with pytest.raises(IrError):
        Block("B")


def test_blocks_are_values(lib):
    """Equality, hashing and repr read provenance and capacity only: name,
    kind and is_simple, read off the provenance, are neither compared nor
    shown."""
    e = chain_graph().edge("A", "B")
    simple = Block(e)
    assert simple == Block(DataflowEdge("A", "out", "B", "in", 100)) == Block(e, 100)
    assert hash(simple) == hash(Block(e, 100)) and {simple: 1}[Block(e)] == 1
    assert repr(simple) == f"Block(provenance={e!r}, capacity=100)"
    ring = Block(ActorSpec("B", "fork", {"fanout": 1}), 4)
    assert ring == Block(ActorSpec("B", "fork", {"fanout": 1}), 4) != Block(ring.provenance, 5)
    assert repr(ring) == (
        "Block(provenance=ActorSpec(name='B', kind='fork', params={'fanout': 1}), capacity=4)"
    )
    with pytest.raises(TypeError):
        hash(ring)  # its provenance's params are a dict
    other = Block(e)
    object.__setattr__(other, "name", "renamed")
    object.__setattr__(other, "is_simple", False)
    assert other == simple and hash(other) == hash(simple)
    assert [f.name for f in fields(Block) if f.compare] == ["provenance", "capacity"]
    z = parse_pafg(serialize_pafg(derive_direct_pafg(chain_graph(), lib)), lib)
    assert pickle.loads(pickle.dumps(z)) == z


def test_simple_block_capacity_is_its_edges():
    e = chain_graph().edge("A", "B")
    assert Block(e) == Block(e, 100) and Block(e).capacity == 100
    with pytest.raises(IrError, match="disagrees with edge capacity 100"):
        Block(e, 99)
    with pytest.raises(IrError, match="capacity 100.0 is not an int >= 1"):
        Block(e, 100.0)


def test_block_capacity_must_be_a_positive_int():
    for bad in (0, 2.5, "abc", True):
        with pytest.raises(IrError):
            Block(ActorSpec("F", "fork"), capacity=bad)
    assert Block(ActorSpec("F", "fork"), capacity=1).capacity == 1


def _reparsed_line(text, old, new, lib):
    """parse_pafg on text with `old` at the start of its first line that has it
    replaced by `new`; returns the ParseError and that line's number."""
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(old))
    lines[lineno - 1] = new + lines[lineno - 1][len(old):]
    with pytest.raises(ParseError) as err:
        parse_pafg("\n".join(lines) + "\n", lib=lib)
    return err.value, lineno


def test_validator_rejects_active_simple_block(lib):
    # a simple block has its edge's capacity, so it is derived passive and no
    # PAFG can make it active; a file that says so is refused at its line
    z = derive_direct_pafg(chain_graph(), lib)
    simple = [n for n, b in z.blocks.items() if b.is_simple]
    assert simple and all(z.coordination[n] == PSSV for n in simple)
    name = simple[0]
    old = f"block {name} kind=simple coord=pssv"
    err, lineno = _reparsed_line(serialize_pafg(z), old, old.replace("pssv", "actv"), lib)
    assert err.line == lineno
    assert str(err) == f"line {lineno}: simple block {name!r} must be coordinated pssv"


def test_validator_rejects_passive_block_without_capacity(lib):
    # the fork's block has no capacity, so it is derived active; a file that
    # makes it passive without giving it one is refused at its line
    z = derive_direct_pafg(chain_graph(), lib)
    assert z.blocks["B"].capacity is None and z.coordination["B"] == ACTV
    old = "block B kind=fork coord=actv from=actor:B"
    err, lineno = _reparsed_line(serialize_pafg(z), old, old.replace("actv", "pssv"), lib)
    assert err.line == lineno
    assert str(err) == f"line {lineno}: passive block needs capacity=<int>"


def test_validator_rejects_passive_computational_block(lib):
    # a well-formed passive block but for its kind, which only the library
    # knows has no passive implementation
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("G", "gain", k=2.0)
        .actor("C", "snk")
        .edge("A.out", "G.in", capacity=4)
        .edge("G.out", "C.in", capacity=4)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    blocks = {n: b for n, b in z.blocks.items() if not b.is_simple}
    blocks["G"] = Block(g.actor("G"), capacity=4)  # its capacity makes it passive
    z = Pafg(blocks, g)  # alternating, and accepted
    assert is_alternating(z)
    with pytest.raises(IrError, match="computational block 'G' must be coordinated actv"):
        validate_coordinated(z, lib)


def test_validator_rejects_passive_interface_block(lib):
    g = (
        AppGraphBuilder()
        .actor("F", "fork", fanout=1)
        .actor("C", "snk")
        .edge("F.out0", "C.in", capacity=4)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    blocks = dict(z.blocks)
    blocks["F"] = Block(g.actor("F"), capacity=4)  # passive, with no producer to write it
    # the PAFG refuses it when it is built, before it derives a coordination
    with pytest.raises(IrError, match="passive interface block 'F' is not supported"):
        Pafg(blocks, g)


def test_every_route_returns_one_pafg_record(lib):
    # derive, the fixpoint and the parser each build a Pafg, whose
    # coordination is read off its blocks' capacities
    direct = derive_direct_pafg(chain_graph(), lib)
    optimized, _ = passivize_fixpoint(direct, lib)
    parsed = parse_pafg(serialize_pafg(optimized), lib=lib)
    for z in (direct, optimized, parsed):
        assert type(z) is Pafg
        assert z.coordination == {n: ACTV if b.capacity is None else PSSV
                                  for n, b in z.blocks.items()}
    assert direct.coordination["B"] == ACTV and optimized.coordination["B"] == PSSV


def test_alternating_implies_abc_on_random_graphs(lib):
    rng = random.Random(11)
    for _ in range(60):
        g, _ = build_random_app_graph(rng, max_actors=14)
        z = derive_direct_pafg(g, lib)
        assert is_alternating(z)
        assert check_abc(z)
        assert check_association(g, z)
        validate_coordinated(z, lib)


def test_association_holds_by_construction_on_random_graphs(lib):
    # every way to build a PAFG derives its connections from its blocks
    rng = random.Random(23)
    for _ in range(40):
        g, _ = build_random_app_graph(rng, max_actors=16)
        direct = derive_direct_pafg(g, lib)
        optimized, _ = passivize_fixpoint(direct, lib)
        parsed = parse_pafg(serialize_pafg(optimized), lib=lib)
        for z in (direct, optimized, parsed):
            assert z.edges == block_edges(z.blocks, z.source)
            assert z.graph.edges == z.edges
            assert check_association(z.source, z)
            validate_coordinated(z, lib)
        assert direct.source is g and optimized.source is g
        assert parsed == optimized and parsed.source == g
