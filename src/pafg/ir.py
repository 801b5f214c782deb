"""Passive-active flowgraph IR: blocks with provenance into an application
graph, coordination functions, and the structural validators (alternating
condition, adjacent-buffer restriction, association).

Block taxonomy. A block whose provenance is an application-graph edge is a
simple passive buffer; a block with actor provenance is non-simple, and is
computational or a buffer block depending on whether the actor kind has a
passive implementation in the library. Simple blocks are always passive,
computational blocks always active; the coordination function's real
freedom is the non-simple buffer blocks.
"""

from dataclasses import dataclass

from .dataflow import is_capacity
from .errors import DanglingProvenanceError, IrError
from .graph import DirectedGraph

PSSV = "pssv"
ACTV = "actv"


@dataclass(frozen=True)
class EdgeRef:
    """Provenance link to an application-graph edge."""

    src: str
    src_port: str
    snk: str
    snk_port: str

    def key(self):
        return (self.src, self.snk)

    def signature(self):
        return f"{self.src}.{self.src_port}->{self.snk}.{self.snk_port}"


@dataclass(frozen=True)
class ActorRef:
    """Provenance link to an application-graph actor."""

    name: str


@dataclass(frozen=True)
class Block:
    name: str
    provenance: object
    kind: str = None  # actor kind for non-simple blocks, None for simple
    capacity: int = None  # tokens, when the block is executed passively

    def __post_init__(self):
        simple = isinstance(self.provenance, EdgeRef)
        if not simple and not isinstance(self.provenance, ActorRef):
            raise IrError(f"block {self.name!r}: bad provenance {self.provenance!r}")
        if simple and self.kind is not None:
            raise IrError(f"block {self.name!r}: simple blocks carry no actor kind")
        if not simple and self.kind is None:
            raise IrError(f"block {self.name!r}: non-simple blocks need an actor kind")
        if self.capacity is not None and not is_capacity(self.capacity):
            raise IrError(f"block {self.name!r}: capacity {self.capacity!r} is not an int >= 1")

    @property
    def is_simple(self):
        return isinstance(self.provenance, EdgeRef)


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
    return all(z.coord(src) != z.coord(snk) for src, snk in z.pafg.edges)


def check_abc(z):
    """Adjacent-buffer restriction: no edge joins two passive blocks."""
    return not any(
        z.coord(src) == PSSV and z.coord(snk) == PSSV for src, snk in z.pafg.edges
    )


def is_interface_block(pafg, name):
    """A block with no input edges or no output edges."""
    pafg.block(name)
    return not pafg.graph.in_edges(name) or not pafg.graph.out_edges(name)


def check_association(app_graph, pafg):
    """True iff every simple block corresponds to an edge of the graph and
    every non-simple block to an actor, injectively. A provenance link that
    names an existing edge but disagrees on its ports is corrupt and raises."""
    seen = set()
    for b in pafg.blocks.values():
        if b.is_simple:
            ref = b.provenance
            edge = app_graph.edges.get(ref.key())
            if edge is None:
                return False
            if (edge.src_port, edge.snk_port) != (ref.src_port, ref.snk_port):
                raise DanglingProvenanceError(
                    f"block {b.name!r}: provenance ports {ref.signature()} disagree with "
                    f"edge {edge.signature()}"
                )
            target = ("edge", ref.key())
        else:
            if b.provenance.name not in app_graph.actors:
                return False
            target = ("actor", b.provenance.name)
        if target in seen:
            return False
        seen.add(target)
    return True


def validate_coordinated(z, lib):
    """Reject ill-formed coordinated PAFGs: non-total or mistyped
    coordination (handled at construction), active simple blocks, passive
    computational blocks, and passive interface blocks (which would have
    no producer or no consumer to drive them)."""
    for name, b in z.pafg.blocks.items():
        c = z.coord(name)
        cat = block_category(b, lib)
        if cat == "simple" and c != PSSV:
            raise IrError(f"simple block {name!r} must be coordinated {PSSV}")
        if cat == "computational" and c != ACTV:
            raise IrError(f"computational block {name!r} must be coordinated {ACTV}")
        if c == PSSV and is_interface_block(z.pafg, name):
            raise IrError(f"passive interface block {name!r} is not supported")
        if c == PSSV and b.capacity is None:
            raise IrError(f"passive block {name!r} has no capacity")
    if not check_association(z.source, z.pafg):
        raise IrError("PAFG is not associated with its application graph")
