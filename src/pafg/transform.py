"""Rewrite engine over coordinated PAFGs.

derive_direct_pafg turns an application graph into its direct PAFG: one
passive simple buffer per edge, one active block per actor, and the two
connecting edges per buffer, which the PAFG derives from its blocks.
passivize flips a simply surrounded active buffer block to passive form,
deleting its adjacent simple buffers and rewiring their outer neighbors
straight onto the block. The analyses compute buffer memory (BMR) and the
token-store count per iteration.
"""

from dataclasses import dataclass, field

from .dataflow import TOKEN_BYTES
from .errors import (
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


def _candidate_for(z, lib, name):
    block = z.pafg.block(name)
    if z.coord(name) != ACTV:
        return None, f"block {name!r} is not active"
    if block.is_simple or not lib.is_buffer_actor(block.kind):
        return None, f"block {name!r} is not a non-simple buffer block"
    g = z.pafg.graph
    preds = g.pred(name)
    succs = g.succ(name)
    if not preds or not succs:
        return None, f"block {name!r} is an interface block"
    neighbors = preds | succs
    blocks = z.pafg.blocks
    if not all(blocks[n].is_simple for n in neighbors):
        neighbor = min(n for n in neighbors if not blocks[n].is_simple)
        return None, f"neighbor {neighbor!r} of {name!r} is not a simple passive buffer"
    return PassivizationCandidate(name, frozenset(neighbors)), None


def find_candidates(z, lib):
    """All simply surrounded active buffer blocks, ordered by name."""
    coord = z.coordination
    names = sorted([n for n, b in z.pafg.blocks.items()
                    if coord[n] == ACTV and not b.is_simple and lib.is_buffer_actor(b.kind)])
    return [cand for cand, _ in (_candidate_for(z, lib, n) for n in names) if cand is not None]


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
    """Apply the passivization transformation with respect to one simply
    surrounded active buffer block. Returns (new PAFG, step log entry)."""
    _require_input(z)
    cand, reason = _candidate_for(z, lib, name)
    if cand is None:
        raise NotACandidateError(reason)
    result, (step,) = _rewrite(z, lib, [cand])
    return result, step


def _require_input(z):
    if not is_alternating(z):
        raise TransformError("passivization is defined on alternating PAFGs only")


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


def _rewrite(z, lib, candidates):
    """Passivize, in one rewrite of an alternating, associated PAFG, each
    candidate in the list whose removed buffers no earlier step took. Such
    a step reads the same neighbourhood in z as it would after the steps
    before it. A passivized block's ring holds the summed capacities of the
    input buffers it absorbs, raised where needed to _burst_bound, so that
    no reader or writer waits for a burst the ring cannot hold; a raise is
    logged in the step. The new PAFG derives its block connections from the
    remaining blocks, so each absorbed edge now joins the passivized block
    to the active block at its other end, and a step's added edges are its
    block's connections in the result. Returns (new PAFG, step log)."""
    g = z.pafg.graph
    blocks = dict(z.pafg.blocks)
    gone = set()
    taken = []
    for cand in candidates:
        if not gone.isdisjoint(cand.removed):
            continue  # no longer a candidate: it is next to a passive block
        name = cand.block
        summed = sum(blocks[x].capacity for x in g.pred(name))
        capacity = max(summed, _burst_bound(z, lib, name))
        blocks[name] = Block(blocks[name].provenance, capacity)  # now passive
        gone |= cand.removed
        taken.append((cand, None if capacity == summed else (summed, capacity)))
    for x in gone:
        del blocks[x]
    pafg = Pafg(blocks, z.source)
    ins, outs = pafg.graph.ins, pafg.graph.outs  # a passivized block has both
    log = [
        TransformStep(c.block, sorted(c.removed), sorted(ins[c.block] + outs[c.block]), raised)
        for c, raised in taken
    ]
    return CoordinatedPafg(pafg), log


def passivize_fixpoint(z, lib, blocks=None):
    """Repeatedly passivize an alternating, associated PAFG. With
    blocks=None, passivize the first candidate by name until none remain;
    otherwise apply the named blocks in the given order. Returns (PAFG,
    step log).

    One candidate search and one rewrite are enough. A step deletes only
    the simple buffers next to the passivized block and joins their outer
    neighbors, which stay active, to that block, which is now passive and
    non-simple. No block gains a simple neighbor, so the candidate set only
    shrinks: an entry of the initial list stays a candidate exactly while
    no earlier step has taken one of its buffers, and the first such entry
    is the first candidate by name of the current PAFG. Steps whose buffers
    are disjoint touch disjoint blocks apart from those active outer
    neighbors, so they commute, and each step's log entry is the same
    whether it is computed on the initial PAFG or on the intermediate one:
    a block's connections follow from its own application edges alone."""
    if blocks is not None:
        log = []
        for name in blocks:
            z, step = passivize(z, lib, name)
            log.append(step)
        return z, log
    _require_input(z)
    return _rewrite(z, lib, find_candidates(z, lib))


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
        if z.coord(name) != ACTV:
            continue
        if not z.pafg.graph.out_edges(name):
            continue  # nothing downstream to store into
        if name not in produced_per_block:
            missing.append(name)
            continue
        total += produced_per_block[name]
    if missing:
        raise UnresolvableRateError(
            f"no production count for active block(s): {', '.join(sorted(missing))}"
        )
    return total
