"""Fixed topologies and file texts shared by the tests."""

from pafg.actors import default_library
from pafg.dataflow import AppGraphBuilder
from pafg.formats import serialize_pafg
from pafg.ir import Block, Pafg
from pafg.transform import derive_direct_pafg, passivize_fixpoint


def ten_plus_four_graph():
    """Fourteen-actor regression topology: ten computational actors
    H1..H10 around four fork-style buffer actors J1..J4, fifteen edges.
    J1..J4 all start simply surrounded; J4 is adjacent to J3 through one
    buffer, so passivizing J3 removes J4's candidacy."""
    b = AppGraphBuilder()
    b.actor("H1", "src")
    for name in ("H2", "H3", "H4", "H5", "H6", "H7"):
        b.actor(name, "gain", k=1.0)
    b.actor("H8", "acc")
    b.actor("H9", "rms-ratio")
    b.actor("H10", "rms-ratio")
    for name in ("J1", "J2", "J3"):
        b.actor(name, "fork", fanout=2)
    b.actor("J4", "fork", fanout=1)

    b.edge("H1.out", "J1.in", capacity=8)
    b.edge("J1.out0", "H2.in", capacity=8)
    b.edge("J1.out1", "H3.in", capacity=8)
    b.edge("H2.out", "J2.in", capacity=8)
    b.edge("H3.out", "J3.in", capacity=8)
    b.edge("J2.out0", "H4.in", capacity=8)
    b.edge("J2.out1", "H5.in", capacity=8)
    b.edge("J3.out0", "H6.in", capacity=8)
    b.edge("J3.out1", "J4.in", capacity=8)
    b.edge("H4.out", "H7.in", capacity=8)
    b.edge("H5.out", "H8.in", capacity=8)
    b.edge("H6.out", "H9.e", capacity=8)
    b.edge("H7.out", "H9.r", capacity=8)
    b.edge("J4.out0", "H10.e", capacity=8)
    b.edge("H9.out", "H10.r", capacity=8)
    return b.build()


def chain_graph(capacity=100):
    """src -> fanout-1 fork -> snk; the smallest passivizable pipeline."""
    return (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "fork", fanout=1)
        .actor("C", "snk")
        .edge("A.out", "B.in", capacity=capacity)
        .edge("B.out0", "C.in", capacity=capacity)
        .build()
    )


def fork_line_graph():
    """S -> F -> G -> H -> K through three fanout-1 forks: each fork's
    output buffer is the next fork's input buffer."""
    b = AppGraphBuilder().actor("S", "src").actor("K", "snk")
    for name in "FGH":
        b.actor(name, "fork", fanout=1)
    b.edge("S.out", "F.in", capacity=4).edge("F.out0", "G.in", capacity=4)
    return b.edge("G.out0", "H.in", capacity=4).edge("H.out0", "K.in", capacity=4).build()


def gain_fork_cluster_graph(capacity=16):
    """Gain feeding a two-way fork with two consumers."""
    return (
        AppGraphBuilder()
        .actor("G", "gain", k=2.0)
        .actor("F", "fork", fanout=2)
        .actor("C1", "acc")
        .actor("C2", "acc")
        .edge("G.out", "F.in", capacity=capacity)
        .edge("F.out0", "C1.in", capacity=capacity)
        .edge("F.out1", "C2.in", capacity=capacity)
        .build()
    )


# Mapping-equivalence fixtures: sources are named after the buffer actor's
# input ports and sinks after its output ports, so the direct PAFG runs the
# active actors and the passivized PAFG runs the kernel on the same streams.


def _output_sinks(builder, block, fanout, capacity):
    for i in range(fanout):
        builder.actor(f"out{i}", "snk")
        builder.edge(f"{block}.out{i}", f"out{i}.in", capacity=capacity)
    return builder.build()


def fork_graph(fanout=2, capacity=16):
    """Source "in" -> fork F -> sinks out0..out{fanout-1}."""
    b = AppGraphBuilder().actor("in", "src").actor("F", "fork", fanout=fanout)
    b.edge("in.out", "F.in", capacity=capacity)
    return _output_sinks(b, "F", fanout, capacity)


def gain_then_fork_graph(k, fanout=2, capacity=16):
    """Source "in" -> gain G -> fork F -> sinks; the unfused reference for
    a passive gain-fork."""
    b = (
        AppGraphBuilder()
        .actor("in", "src")
        .actor("G", "gain", k=k)
        .actor("F", "fork", fanout=fanout)
        .edge("in.out", "G.in", capacity=capacity)
        .edge("G.out", "F.in", capacity=capacity)
    )
    return _output_sinks(b, "F", fanout, capacity)


def gain_fork_graph(k, fanout=2, capacity=16):
    """Source "in" -> fused gain-fork GF -> sinks."""
    b = AppGraphBuilder().actor("in", "src").actor("GF", "gain-fork", k=k, fanout=fanout)
    b.edge("in.out", "GF.in", capacity=capacity)
    return _output_sinks(b, "GF", fanout, capacity)


def interleave_graph(fanout=1, capacity=16):
    """Sources "re" and "im" -> interleave IL -> sinks."""
    b = (
        AppGraphBuilder()
        .actor("re", "src")
        .actor("im", "src")
        .actor("IL", "interleave", fanout=fanout)
        .edge("re.out", "IL.re", capacity=capacity)
        .edge("im.out", "IL.im", capacity=capacity)
    )
    return _output_sinks(b, "IL", fanout, capacity)


def interleave_ring_pafg(capacity):
    """The passivized interleave graph's PAFG file with capacity=<capacity>
    on the ring IL, which has 2 write ports."""
    lib = default_library()
    z, _ = passivize_fixpoint(derive_direct_pafg(interleave_graph(), lib), lib)
    text = serialize_pafg(z)
    line = next(ln for ln in text.splitlines() if ln.startswith("block IL "))
    return text.replace(line, line.rsplit(" ", 1)[0] + f" capacity={capacity}")


def unchecked_direct_pafg(g):
    """g's direct PAFG, built without the library checks that
    derive_direct_pafg makes, for a graph that it refuses."""
    blocks = map(Block, [*g.actors.values(), *g.edges.values()])
    return Pafg({b.name: b for b in blocks}, g)


# A fanout-2 fork whose third edge leaves port F.{port}; out7 and bogus
# are undeclared.
FORK_GRAPH = """actor S src
actor F fork fanout=2
actor A snk
actor B snk
edge S.out -> F.in capacity=1
edge F.out0 -> A.in capacity=1
edge F.{port} -> B.in capacity=1
"""


# A gain made a passive block: well-formed but for its kind, which only
# the library knows has no passive implementation.
PASSIVE_GAIN_PAFG = """actor A src
actor C snk
actor G gain k=2.0
edge A.out -> G.in capacity=4 type=f64
edge G.out -> C.in capacity=4 type=f64
block A kind=src coord=actv from=actor:A
block C kind=snk coord=actv from=actor:C
block G kind=gain coord=pssv from=actor:G capacity=4
bedge A -> G
bedge G -> C
"""


def rename_block(text, old, new):
    """Rename a block on its block line and its bedges, keeping its provenance."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] in ("block", "bedge"):
            line = " ".join(new if t == old else t for t in tokens)
        lines.append(line)
    return "\n".join(lines) + "\n"
