"""Rewrite engine over coordinated PAFGs.

derive_direct_pafg turns an application graph into its direct PAFG: one
passive simple buffer per edge, one active block per actor, and the two
connecting edges per buffer, which the PAFG derives from its blocks.
passivize_fixpoint flips simply surrounded active buffer blocks (every
candidate, or the named ones) to passive form in one rewrite, deleting
their simple buffers and joining their outer neighbors straight to them.
One rule, _candidate, decides candidacy on the block table a rewrite has
reached; find_candidates and both forms of passivize_fixpoint ask it.
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
from .ir import (
    ACTV,
    Block,
    CoordinatedPafg,
    PSSV,
    Pafg,
    is_alternating,
    is_interface_block,
)


def derive_direct_pafg(app_graph, lib):
    """Direct PAFG of an application graph: every block active except the
    per-edge simple buffers. The result is always alternating and
    associated."""
    blocks = {}
    for name, spec in app_graph.actors.items():
        if not lib.has_kind(spec.kind):
            raise UnknownKindError(f"actor {name!r}: unregistered kind {spec.kind!r}")
        blocks[name] = Block(spec)
    for e in app_graph.edges.values():
        blocks[e.signature] = Block(e)
    return CoordinatedPafg(Pafg(blocks, app_graph))


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
    consumer and only simple passive neighbors. A neighbor a step removed
    is named by the other end of its edge, the block whose step removed it."""
    block = table.get(name)
    if block is None:  # never a block, or a step removed it
        return IrError(f"unknown block {name!r}")
    if block.capacity is not None:
        return NotACandidateError(f"block {name!r} is not active")
    if block.is_simple or not lib.is_buffer_actor(block.kind):
        return NotACandidateError(f"block {name!r} is not a non-simple buffer block")
    if is_interface_block(z.pafg, name):
        return NotACandidateError(f"block {name!r} is an interface block")
    g = z.pafg.graph
    neighbors = {src for src, _ in g.ins[name]} | {snk for _, snk in g.outs[name]}
    others = [n for n in neighbors if n in table and not table[n].is_simple]
    for n in neighbors.difference(table):  # removed by a step: name its edge's other end
        e = z.pafg.blocks[n].provenance
        others.append(e.src if e.snk == name else e.snk)
    if others:
        return NotACandidateError(
            f"neighbor {min(others)!r} of {name!r} is not a simple passive buffer")
    return PassivizationCandidate(name, frozenset(neighbors))


def find_candidates(z, lib):
    """All simply surrounded active buffer blocks, ordered by name: the
    blocks of z's actors that _candidate accepts, as an edge's simple block
    never is one."""
    blocks = z.pafg.blocks
    found = (_candidate(z, lib, name, blocks) for name in sorted(z.source.actors))
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
    blocks=None, the first candidate by name until none remain; otherwise
    the named blocks in order, raising at the first that passivize would
    refuse. Returns (PAFG, step log).

    One rule, _candidate, decides candidacy, and one candidate search is
    enough. A step deletes only the simple buffers next to the passivized
    block and joins their outer neighbors, which stay active, to that
    block, now passive and non-simple. No block gains a simple neighbor, so
    the candidate set only shrinks: an entry of the initial list stays a
    candidate exactly while no earlier step has taken one of its buffers,
    and the first such entry is the first candidate by name of the current
    PAFG. A named block is checked on the block table the rewrite has
    reached when its turn comes. Steps with disjoint buffers touch disjoint
    blocks but for those active outer neighbors, so they commute, and a
    step's log entry is the same on the initial PAFG as on the current
    one: a block's connections follow from its own application edges. A
    passivized block's ring holds the summed capacities of the input
    buffers it absorbs, raised where needed to _burst_bound so that no
    reader or writer waits for a burst the ring cannot hold."""
    if not is_alternating(z):
        raise TransformError("passivization is defined on alternating PAFGs only")
    g = z.pafg.graph
    table = dict(z.pafg.blocks)
    log = []
    for entry in find_candidates(z, lib) if blocks is None else blocks:
        cand = entry if blocks is None else _candidate(z, lib, entry, table)
        if not isinstance(cand, PassivizationCandidate):
            raise cand
        if not table.keys() >= cand.removed:
            continue  # no longer a candidate: a step took one of its buffers
        name = cand.block
        summed = sum(table[x].capacity for x in g.pred(name))
        capacity = max(summed, _burst_bound(z, lib, name))
        table[name] = Block(table[name].provenance, capacity)  # now passive
        for x in cand.removed:
            del table[x]
        raised = None if capacity == summed else (summed, capacity)
        log.append(TransformStep(name, sorted(cand.removed), None, raised))
    pafg = Pafg(table, z.source)
    ins, outs = pafg.graph.ins, pafg.graph.outs  # a passivized block has both
    for step in log:
        step.added_edges = sorted(ins[step.block] + outs[step.block])
    return CoordinatedPafg(pafg), log


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
        {n: b.capacity * TOKEN_BYTES for n, b in z.pafg.blocks.items() if coord[n] == PSSV}
    )


def estimate_copy_count(z, produced_per_block):
    """Token-store operations into passive-block memory per iteration.

    produced_per_block gives, for each active block, the total number of
    tokens it writes per iteration (summed across its output ports); a
    passive block stores nothing beyond its producers' writes. Blocks
    without output edges may be omitted."""
    total = 0
    missing = []
    for name in z.pafg.blocks:
        if z.coordination[name] != ACTV or not z.pafg.graph.out_edges(name):
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
