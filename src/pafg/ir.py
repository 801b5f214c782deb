"""Passive-active flowgraph IR: blocks with provenance into an application
graph, coordination functions, and the structural validators (alternating
condition, adjacent-buffer restriction, association).

Block taxonomy. A block's provenance is the application graph's own record:
a DataflowEdge makes it a simple passive buffer named by the edge's
signature, an ActorSpec a non-simple block named after the actor, which is
computational or a buffer block depending on whether the actor kind has a
passive implementation in the library. Simple blocks are always passive,
computational blocks always active; the coordination function's real
freedom is the non-simple buffer blocks.
"""

from dataclasses import dataclass

from .dataflow import ActorSpec, DataflowEdge, is_capacity
from .errors import DanglingProvenanceError, IrError
from .graph import DirectedGraph

PSSV = "pssv"
ACTV = "actv"


@dataclass(frozen=True)
class Block:
    """A PAFG block: the actor or edge record it stands for, plus its
    capacity in tokens when it is executed passively; a simple block's
    capacity is its edge's. name and kind are read off the provenance once
    and are not fields, so they take no part in equality."""

    provenance: object  # ActorSpec (non-simple) or DataflowEdge (simple)
    capacity: int = None

    def __post_init__(self):
        p = self.provenance
        if isinstance(p, ActorSpec):
            name, kind = p.name, p.kind
        elif isinstance(p, DataflowEdge):
            name, kind = p.signature, None
            if self.capacity is None:
                object.__setattr__(self, "capacity", p.capacity)
            elif self.capacity != p.capacity:
                raise IrError(
                    f"simple block {name!r}: capacity {self.capacity!r} disagrees with "
                    f"edge capacity {p.capacity}"
                )
        else:
            raise IrError(f"bad block provenance {p!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        if self.capacity is not None and not is_capacity(self.capacity):
            raise IrError(f"block {name!r}: capacity {self.capacity!r} is not an int >= 1")

    @property
    def is_simple(self):
        return isinstance(self.provenance, DataflowEdge)


@dataclass(frozen=True)
class Pafg:
    """Blocks by name plus the (src, dst) block connections. graph is built
    from the two once and is not a field, so it takes no part in equality."""

    blocks: dict
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "graph", DirectedGraph.of(self.blocks, self.edges))
        for name, b in self.blocks.items():
            if b.name != name:
                raise IrError(f"block table key {name!r} does not match block {b.name!r}")

    def block(self, name):
        try:
            return self.blocks[name]
        except KeyError:
            raise IrError(f"unknown block {name!r}") from None


@dataclass(frozen=True)
class CoordinatedPafg:
    """A PAFG plus its coordination function, carrying the application
    graph the provenance links point back to."""

    pafg: Pafg
    coordination: dict
    source: object  # ApplicationGraph

    def __post_init__(self):
        if set(self.coordination) != set(self.pafg.blocks):
            raise IrError("coordination function domain does not equal the block set")
        for name, c in self.coordination.items():
            if c not in (PSSV, ACTV):
                raise IrError(f"block {name!r}: bad coordination value {c!r}")

    def coord(self, name):
        return self.coordination[name]


def block_category(block, lib):
    """"simple", "computational", or "buffer" (non-simple buffer block)."""
    if block.is_simple:
        return "simple"
    return "buffer" if lib.is_buffer_actor(block.kind) else "computational"


def is_alternating(z):
    """True iff every edge joins one active and one passive block."""
    coord = z.coordination
    return all(coord[src] != coord[snk] for src, snk in z.pafg.edges)


def check_abc(z):
    """Adjacent-buffer restriction: no edge joins two passive blocks."""
    return not any(
        z.coord(src) == PSSV and z.coord(snk) == PSSV for src, snk in z.pafg.edges
    )


def is_interface_block(pafg, name):
    """A block with no input edges or no output edges."""
    pafg.block(name)
    return not pafg.graph.in_edges(name) or not pafg.graph.out_edges(name)


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
    """True iff every simple block's edge and every non-simple block's actor
    is the graph's own record, every actor has a block, and the block
    connections are exactly block_edges. Block names are unique and each
    is read off its provenance, so the map is injective by construction. A
    simple block whose edge disagrees with the graph's edge between the
    same actors is corrupt and raises."""
    for b in pafg.blocks.values():
        p = b.provenance
        if not b.is_simple:
            actor = app_graph.actors.get(p.name)
            if actor is not p and actor != p:
                return False
            continue
        edge = app_graph.edges.get(p.key())
        if edge is None:
            return False
        if edge is not p and edge != p:
            raise DanglingProvenanceError(
                f"block {b.name!r}: provenance {p.signature} disagrees with "
                f"edge {edge.signature}"
            )
    if not app_graph.actors.keys() <= pafg.blocks.keys():
        return False
    return pafg.edges == block_edges(pafg.blocks, app_graph)


def validate_coordinated(z, lib):
    """Reject ill-formed coordinated PAFGs: non-total or mistyped
    coordination (handled at construction), active simple blocks, passive
    computational blocks, and passive interface blocks (which would have
    no producer or no consumer to drive them)."""
    fed, feeding = set(), set()  # blocks with an input edge, with an output edge
    for src, snk in z.pafg.edges:
        feeding.add(src)
        fed.add(snk)
    for name, b in z.pafg.blocks.items():
        if z.coord(name) != PSSV:
            if b.is_simple:
                raise IrError(f"simple block {name!r} must be coordinated {PSSV}")
        elif block_category(b, lib) == "computational":
            raise IrError(f"computational block {name!r} must be coordinated {ACTV}")
        elif name not in fed or name not in feeding:
            raise IrError(f"passive interface block {name!r} is not supported")
        elif b.capacity is None:
            raise IrError(f"passive block {name!r} has no capacity")
    if not check_association(z.source, z.pafg):
        raise IrError("PAFG is not associated with its application graph")
