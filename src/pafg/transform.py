"""Rewrite engine over PAFGs, each one record of blocks and their coordination.

derive_direct_pafg turns an application graph into its direct PAFG: one
passive simple buffer per edge, one active block per actor, and the two
connecting edges per buffer, which the PAFG derives from its blocks.
passivize_fixpoint flips simply surrounded active buffer blocks (every
candidate, or the named ones) to passive form in one rewrite, deleting
their simple buffers and joining their outer neighbors straight to them.
One rule, _candidate, decides candidacy on the block table a rewrite has
reached, reading a block's neighborhood from its actor's application edges;
find_candidates and both forms of passivize_fixpoint ask it.
The analyses compute buffer memory (BMR) and token stores per iteration.
"""

from dataclasses import dataclass, field

from .dataflow import TOKEN_BYTES
from .errors import (
    IrError,
    NotACandidateError,
    TransformError,
    UnknownKindError,
    UnresolvableRateError,
)
from .ir import ACTV, Block, PSSV, Pafg, is_alternating


def derive_direct_pafg(app_graph, lib):
    """Direct PAFG of an application graph: every block active except the
    per-edge simple buffers. The result is always alternating and
    associated. Each actor is declared and each edge's ports and token type
    checked (lib.check_ports), so a graph that parse_graph refuses is
    refused here with the same message."""
    actors, blocks = app_graph.actors, {}
    for name, spec in actors.items():
        if not lib.has_kind(spec.kind):
            raise UnknownKindError(f"actor {name!r}: unregistered kind {spec.kind!r}")
        lib.declare(spec)
        blocks[name] = Block(spec)
    for e in app_graph.edges.values():
        lib.check_ports(e, actors)
        blocks[e.signature] = Block(e)
    return Pafg(blocks, app_graph)


@dataclass(frozen=True)
class PassivizationCandidate:
    """An active non-simple buffer block whose neighbors are all simple
    passive buffers, which the rewrite removes."""

    block: str
    removed: frozenset  # the adjacent simple blocks


def _candidate(z, lib, name, table):
    """The candidate that name is in table, the block table a rewrite of z
    has reached, or the error that says why not: the one candidacy rule. A
    candidate is an active non-simple buffer block with a producer and a
    consumer whose application edges all keep their simple buffers in
    table. An edge whose buffer is gone, never there or removed by a step,
    names its other end, the block now joined straight to this one."""
    block = table.get(name)
    if block is None:  # never a block, or a step removed it
        return IrError(f"unknown block {name!r}")
    if block.capacity is not None:
        return NotACandidateError(f"block {name!r} is not active")
    if block.is_simple or not lib.is_buffer_actor(block.kind):
        return NotACandidateError(f"block {name!r} is not a non-simple buffer block")
    g, edges = z.source.graph, z.source.edges
    if name not in g.ins or name not in g.outs:
        return NotACandidateError(f"block {name!r} is an interface block")
    keys = g.ins[name] + g.outs[name]
    lost = [a if b == name else b for a, b in keys if edges[a, b].signature not in table]
    if lost:
        return NotACandidateError(
            f"neighbor {min(lost)!r} of {name!r} is not a simple passive buffer")
    return PassivizationCandidate(name, frozenset(edges[k].signature for k in keys))


def find_candidates(z, lib):
    """All simply surrounded active buffer blocks, ordered by name: the
    blocks of z's actors that _candidate accepts, as an edge's simple block
    never is one."""
    found = (_candidate(z, lib, name, z.blocks) for name in sorted(z.source.actors))
    return [c for c in found if isinstance(c, PassivizationCandidate)]


@dataclass
class TransformStep:
    block: str
    removed: list
    added_edges: list
    raised_capacity: tuple = None  # (summed input capacity, ring capacity) when raised

    def render(self):
        removed = ",".join(self.removed)
        added = ",".join(f"({a},{b})" for a, b in self.added_edges)
        line = f"passivize {self.block} removed={removed} added_edges={added}"
        if self.raised_capacity is not None:
            summed, capacity = self.raised_capacity
            line += f" capacity={capacity} raised_from={summed}"
        return line


def passivize(z, lib, name):
    """Passivize one simply surrounded active buffer block: the one-name
    case of passivize_fixpoint. Returns (new PAFG, step log entry)."""
    result, (step,) = passivize_fixpoint(z, lib, [name])
    return result, step


def _burst_bound(z, lib, name):
    """The least ring capacity that admits one burst of every reader and
    writer of the passivized block: a reader's largest read, and the index
    span of a writer's largest write, which on a ring of m write ports is
    m times the burst, each over every rate table its actor can fire under.
    The rates come from the block's application edges, which its simple
    buffers stand for."""
    actors, edges, g = z.source.actors, z.source.edges, z.source.graph
    stride = len(lib.declare(actors[name]).input_ports)
    bursts = [1]
    for key in g.ins.get(name, ()):
        e = edges[key]
        bursts += [stride * t[1].get(e.src_port, 0) for t in lib.declare(actors[e.src]).rate_tables]
    for key in g.outs.get(name, ()):
        e = edges[key]
        bursts += [t[0].get(e.snk_port, 0) for t in lib.declare(actors[e.snk]).rate_tables]
    return max(bursts)


def passivize_fixpoint(z, lib, blocks=None):
    """Passivize an alternating, associated PAFG in one rewrite: with
    blocks=None, every actor's block by name that is a candidate when its
    turn comes; otherwise the named blocks in order, raising at the first
    that passivize would refuse. Returns (PAFG, step log).

    One rule, _candidate, decides candidacy on the block table the rewrite
    has reached, and one walk by name is enough. A step deletes only the
    simple buffers next to the passivized block and joins their outer
    neighbors, which stay active, to that block, now passive and
    non-simple: it gives no block a simple neighbor, so a block refused
    stays refused, and one walk passivizes what a greedy rescan for the
    first candidate by name does. A step's log entry follows from the
    block's own application edges: the buffers it removes are their simple
    blocks, and the edges it adds are the edges themselves. A passivized
    block's ring holds the summed capacities of the input buffers it
    absorbs, raised where needed to _burst_bound so that no reader or
    writer waits for a burst the ring cannot hold."""
    if not is_alternating(z):
        raise TransformError("passivization is defined on alternating PAFGs only")
    ins, outs, edges = z.source.graph.ins, z.source.graph.outs, z.source.edges
    table = dict(z.blocks)
    log = []
    for name in sorted(z.source.actors) if blocks is None else blocks:
        cand = _candidate(z, lib, name, table)
        if not isinstance(cand, PassivizationCandidate):
            if blocks is None:
                continue
            raise cand
        summed = sum(edges[k].capacity for k in ins[name])
        capacity = max(summed, _burst_bound(z, lib, name))
        table[name] = Block(table[name].provenance, capacity)  # now passive
        for x in cand.removed:
            del table[x]
        raised = None if capacity == summed else (summed, capacity)
        log.append(TransformStep(name, sorted(cand.removed), sorted(ins[name] + outs[name]), raised))
    return Pafg(table, z.source), log


@dataclass
class BmrReport:
    """Bytes of passive buffer storage, per block and in total."""

    per_block: dict = field(default_factory=dict)

    @property
    def total_bytes(self):
        return sum(self.per_block.values())


def compute_bmr(z):
    """Buffer memory requirement: capacity times token width summed over
    every passive block, simple or not."""
    coord = z.coordination
    return BmrReport(
        {n: b.capacity * TOKEN_BYTES for n, b in z.blocks.items() if coord[n] == PSSV}
    )


def estimate_copy_count(z, produced_per_block):
    """Token-store operations into passive-block memory per iteration.

    produced_per_block gives, for each active block, the total number of
    tokens it writes per iteration (summed across its output ports); a
    passive block stores nothing beyond its producers' writes. Blocks
    without output edges may be omitted."""
    total = 0
    missing = []
    for name in z.blocks:
        if z.coordination[name] != ACTV or name not in z.source.graph.outs:
            continue  # passive, or nothing downstream to store into
        if name not in produced_per_block:
            missing.append(name)
            continue
        total += produced_per_block[name]
    if missing:
        raise UnresolvableRateError(
            f"no production count for active block(s): {', '.join(sorted(missing))}"
        )
    return total
