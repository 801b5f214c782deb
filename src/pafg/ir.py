"""Passive-active flowgraph IR: blocks, slotted values with provenance into
an application graph, coordination functions, and the structural
validators (alternating condition, adjacent-buffer restriction).

Block taxonomy. A block's provenance is the application graph's own record:
a DataflowEdge makes it a simple passive buffer named by the edge's
signature, an ActorSpec a non-simple block named after the actor, which is
computational or a buffer block depending on whether the actor kind has a
passive implementation in the library. Simple blocks are always passive,
computational blocks always active; the coordination function's real
freedom is the non-simple buffer blocks. A PAFG, one record, is its
flowgraph and its coordination function, and is associated with its
application graph by construction: when it is built it checks that every
block's provenance is the graph's own record and that every actor has a
block, derives its block connections from the blocks and the graph, checks
that a passive non-simple block has a producer and a consumer, and derives
its coordination from the blocks, as a passive block is the one that
stores data. validate_coordinated checks, for parse_pafg and instantiate,
the rules that need the library: a computational block is active, and a
passive ring has a slot per write port.
"""

from dataclasses import dataclass, field

from .dataflow import ActorSpec, DataflowEdge, is_capacity
from .errors import DanglingProvenanceError, IrError
from .graph import DirectedGraph

PSSV = "pssv"
ACTV = "actv"


@dataclass(slots=True, unsafe_hash=True)
class Block:
    """A PAFG block: the actor or edge record it stands for, plus its
    capacity in tokens when it is executed passively; a simple block's
    capacity is its edge's. name, kind and is_simple are read off the
    provenance once and take no part in equality, hashing or repr."""

    provenance: object  # ActorSpec (non-simple) or DataflowEdge (simple)
    capacity: int = None
    name: str = field(init=False, repr=False, compare=False)
    kind: str = field(init=False, repr=False, compare=False)
    is_simple: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.provenance
        if isinstance(p, ActorSpec):
            self.name, self.kind, self.is_simple = p.name, p.kind, False
        elif isinstance(p, DataflowEdge):
            self.name, self.kind, self.is_simple = p.signature, None, True
            if self.capacity is None:
                self.capacity = p.capacity
            elif self.capacity != p.capacity:
                raise IrError(
                    f"simple block {self.name!r}: capacity {self.capacity!r} disagrees with "
                    f"edge capacity {p.capacity}"
                )
        else:
            raise IrError(f"bad block provenance {p!r}")
        if self.capacity is not None and not is_capacity(self.capacity):
            raise IrError(f"block {self.name!r}: capacity {self.capacity!r} is not an int >= 1")


@dataclass(frozen=True)
class Pafg:
    """A PAFG: blocks by name over the application graph they realize, its
    flowgraph, and its coordination function. Each block's provenance is
    the graph's own record, and every actor has a block. The (src, dst)
    block connections, edges = block_edges(blocks, source), graph and
    coordination are derived once, when it is built, and are not fields,
    so they take no part in equality: a block is pssv iff it has a
    capacity, so every simple block is passive, and a passive non-simple
    block must have a producer and a consumer."""

    blocks: dict
    source: object  # ApplicationGraph

    def __post_init__(self):
        actors, edges = self.source.actors, self.source.edges
        for name, b in self.blocks.items():
            if b.name != name:
                raise IrError(f"block table key {name!r} does not match block {b.name!r}")
            p = b.provenance
            own = edges.get((p.src, p.snk)) if b.is_simple else actors.get(name)
            if own is not p and own != p:
                raise DanglingProvenanceError(
                    f"block {name!r}: provenance is not its application graph's own record"
                )
        if not actors.keys() <= self.blocks.keys():
            name = next(n for n in actors if n not in self.blocks)
            raise IrError(f"actor {name!r} has no block")
        object.__setattr__(self, "edges", block_edges(self.blocks, self.source))
        object.__setattr__(self, "graph", DirectedGraph.of(self.blocks, self.edges))
        for name, b in self.blocks.items():
            if not b.is_simple and b.capacity is not None and is_interface_block(self, name):
                raise IrError(f"passive interface block {name!r} is not supported")
        coordination = {n: ACTV if b.capacity is None else PSSV for n, b in self.blocks.items()}
        object.__setattr__(self, "coordination", coordination)

    def block(self, name):
        try:
            return self.blocks[name]
        except KeyError:
            raise IrError(f"unknown block {name!r}") from None

    @property
    def pafg(self):  # ROADMAP F deletes this with the benchmark change, which reads z.pafg
        return self


# ROADMAP F deletes this with the benchmark change, which imports and patches CoordinatedPafg
CoordinatedPafg = Pafg


def is_alternating(z):
    """True iff every edge joins one active and one passive block."""
    coord = z.coordination
    return all(coord[src] != coord[snk] for src, snk in z.edges)


def check_abc(z):
    """Adjacent-buffer restriction: no edge joins two passive blocks."""
    coord = z.coordination
    return not any(coord[src] == PSSV and coord[snk] == PSSV for src, snk in z.edges)


def is_interface_block(pafg, name):
    """A block with no input edges or no output edges."""
    pafg.block(name)
    return name not in pafg.graph.ins or name not in pafg.graph.outs


def block_edges(blocks, app_graph):
    """The block connections that realize app_graph's edges among blocks:
    an edge runs through its simple buffer if that buffer is a block, and
    otherwise straight between its two actors' blocks, one of which has
    absorbed it."""
    edges = set()
    for e in app_graph.edges.values():
        name = e.signature
        if name in blocks:
            edges.add((e.src, name))
            edges.add((name, e.snk))
        else:
            edges.add((e.src, e.snk))
    return frozenset(edges)


def check_association(app_graph, pafg):
    """True iff pafg realizes app_graph. Every Pafg is associated with its
    own application graph by construction, so this compares the graphs."""
    return pafg.source is app_graph or pafg.source == app_graph


def validate_coordinated(z, lib):
    """The coordination rules that need the library: a computational block
    (its kind has no passive form) is active, and a passive ring has a slot
    per write port (its kind's input ports). Pafg checks the rest."""
    coord = z.coordination
    for name, b in z.blocks.items():
        if coord[name] == PSSV and not b.is_simple:
            if not lib.is_buffer_actor(b.kind):
                raise IrError(f"computational block {name!r} must be coordinated {ACTV}")
            m = len(lib.declare(b.provenance).input_ports)
            if b.capacity < m:
                raise IrError(
                    f"passive block {name!r}: a ring with {m} write ports needs capacity "
                    f">= {m}, got {b.capacity}"
                )
