"""Checks on passivization results that only the tests make."""

from pafg.errors import IrError, NotACandidateError, TransformError
from pafg.ir import ACTV, is_alternating


def assert_step_arithmetic(before, after, step):
    """Block/edge-count bookkeeping for one passivization step:
    |V_b| = |V_a| - |removed| and |E_b| = |E_a| - |E_r| + |added|."""
    va, vb = before.pafg.graph, after.pafg.graph
    removed = set(step.removed)
    e_r = {e for e in va.edges if e[0] in removed or e[1] in removed}
    if len(vb.vertices) != len(va.vertices) - len(removed):
        raise TransformError("vertex count arithmetic violated")
    if len(vb.edges) != len(va.edges) - len(e_r) + len(step.added_edges):
        raise TransformError("edge count arithmetic violated")
    if not is_alternating(after):
        raise TransformError("passivization produced a non-alternating PAFG")


def block_graph_candidate(z, lib, name):
    """The candidacy rule read off z's block graph, apart from the library's
    own: the set of simple blocks a step on name removes, or the error
    passivize raises, in the same words. A candidate is an active buffer
    block with a producer and a consumer and only simple neighbors."""
    blocks, g = z.pafg.blocks, z.pafg.graph
    if name not in blocks:
        return IrError(f"unknown block {name!r}")
    if z.coordination[name] != ACTV:
        return NotACandidateError(f"block {name!r} is not active")
    if blocks[name].is_simple or not lib.is_buffer_actor(blocks[name].kind):
        return NotACandidateError(f"block {name!r} is not a non-simple buffer block")
    if not g.pred(name) or not g.succ(name):
        return NotACandidateError(f"block {name!r} is an interface block")
    neighbors = g.pred(name) | g.succ(name)
    others = sorted(n for n in neighbors if not blocks[n].is_simple)
    if others:
        return NotACandidateError(f"neighbor {others[0]!r} of {name!r} is not a simple passive buffer")
    return neighbors
